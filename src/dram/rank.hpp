/**
 * @file
 * Rank-level DRAM timing constraints (tRRD, tFAW, write-to-read
 * turnaround) and the per-rank power-down state machine.
 */

#pragma once

#include <array>

#include "common/types.hpp"
#include "dram/timing.hpp"

namespace tcm::dram {

/**
 * Tracks constraints that span all banks of one rank: activate-to-activate
 * spacing (tRRD_S/tRRD_L, split by bank group), the rolling four-activate
 * window (tFAW), the write-to-read turnaround (tWTR), and the precharge
 * power-down state (entered/exited by the controller's PowerDown/PowerUp
 * commands; tCKE bounds the minimum residency, tXP delays the first valid
 * command after exit). Like Bank it only keeps registers; legality is
 * decided by Channel::earliestIssue.
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

    // -- Power-down -----------------------------------------------------------

    /** True when the rank is in precharge power-down. */
    bool poweredDown() const { return poweredDown_; }

    /** Enter power-down at @p now. */
    void recordPowerDown(Cycle now);

    /** Exit power-down at @p now; commands legal from now + tXP. */
    void recordPowerUp(Cycle now);

    /** Earliest cycle a PowerUp could issue (kCycleNever when not down). */
    Cycle earliestPowerUp() const;

    /**
     * First cycle the power state lets a command other than PowerUp
     * issue: tXP after the last exit, or kCycleNever while the rank is
     * down (only a PowerUp can end that).
     */
    Cycle earliestCommandsAllowed() const
    {
        return poweredDown_ ? kCycleNever : pdExitAt_;
    }

    /**
     * Cycles spent in power-down through @p now, including the current
     * residency when still down (energy accounting).
     */
    Cycle powerDownCycles(Cycle now) const;

  private:
    const TimingParams *timing_;
    Cycle lastActAt_ = 0;        //!< most recent ACT (tRRD base)
    int lastActGroup_ = -1;      //!< its bank group; -1 = no ACT yet
    Cycle rdAllowedAt_ = 0;      //!< next RD per tWTR
    std::array<Cycle, 4> actHistory_{}; //!< circular buffer for tFAW
    int actHistoryPos_ = 0;

    bool poweredDown_ = false;
    Cycle pdSince_ = 0;          //!< entry cycle of the current residency
    Cycle pdExitAt_ = 0;         //!< last PowerUp + tXP (command gate)
    Cycle pdAccum_ = 0;          //!< completed power-down cycles
};

} // namespace tcm::dram
