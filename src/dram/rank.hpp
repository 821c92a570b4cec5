/**
 * @file
 * Rank-level DRAM timing constraints (tRRD, tFAW, write-to-read
 * turnaround).
 */

#pragma once

#include <array>

#include "common/types.hpp"
#include "dram/timing.hpp"

namespace tcm::dram {

/**
 * Tracks constraints that span all banks of one rank: activate-to-activate
 * spacing (tRRD_S/tRRD_L, split by bank group), the rolling four-activate
 * window (tFAW) and the write-to-read turnaround (tWTR). Like Bank it
 * only keeps registers; legality is decided by Channel::earliestIssue.
 */
class Rank
{
  public:
    explicit Rank(const TimingParams &timing);

    /** Record an issued ACT to bank group @p group at @p now. */
    void recordActivate(Cycle now, int group);

    /** Record an issued WR at @p now (arms the tWTR turnaround). */
    void recordWrite(Cycle now);

    /** Earliest cycle an ACT to @p group could issue (tRRD, tFAW). */
    Cycle earliestActivate(int group) const;

    /** Earliest cycle a RD could issue (tWTR). */
    Cycle earliestRead() const { return rdAllowedAt_; }

  private:
    const TimingParams *timing_;
    Cycle lastActAt_ = 0;        //!< most recent ACT (tRRD base)
    int lastActGroup_ = -1;      //!< its bank group; -1 = no ACT yet
    Cycle rdAllowedAt_ = 0;      //!< next RD per tWTR
    std::array<Cycle, 4> actHistory_{}; //!< circular buffer for tFAW
    int actHistoryPos_ = 0;
};

} // namespace tcm::dram
