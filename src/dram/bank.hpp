/**
 * @file
 * Single DRAM bank state machine with per-command timing constraints.
 */

#pragma once

#include "common/types.hpp"
#include "dram/timing.hpp"

namespace tcm::dram {

/**
 * Models one DRAM bank: the open row (row-buffer contents) plus the
 * earliest cycle at which each command class may legally be issued.
 *
 * The bank keeps only *bank-local* registers (tRCD, tRP, tRAS, tRC,
 * tRTP, tWR). It decides no legality itself: Channel::earliestIssue
 * combines these registers with the rank-level (tRRD, tFAW, tWTR) and
 * channel-level (command bus, data bus, tCCD) ones.
 */
class Bank
{
  public:
    explicit Bank(const TimingParams &timing);

    /** Row currently held in the row-buffer, or kNoRow when precharged. */
    RowId openRow() const { return openRow_; }

    /** True when the bank is precharged (no row open). */
    bool precharged() const { return openRow_ == kNoRow; }

    /**
     * Issue ACT for @p row at @p now. Asserts legality.
     * @return bank occupancy in cycles (tRCD).
     */
    Cycle activate(Cycle now, RowId row);

    /** Issue RD at @p now. Asserts legality. @return occupancy (tBURST). */
    Cycle read(Cycle now);

    /** Issue WR at @p now. Asserts legality. @return occupancy (tBURST). */
    Cycle write(Cycle now);

    /** Issue PRE at @p now. Asserts legality. @return occupancy (tRP). */
    Cycle precharge(Cycle now);

    /**
     * Apply an all-bank refresh that started at @p now: the bank must be
     * precharged; no ACT may issue until now + tRFC.
     */
    void refresh(Cycle now);

    /**
     * Auto-precharge rider (RD/WRA): close the row as soon as the
     * already-armed precharge constraints (tRTP/tWR via preAllowedAt)
     * allow, without occupying the command bus. Call immediately after
     * read()/write(). The row closes logically now; the next ACT waits
     * until the implicit precharge completes.
     */
    Cycle autoPrecharge();

    /** @{ Earliest-issue registers, read by Channel::earliestIssue. */
    Cycle actAllowedAt() const { return actAllowedAt_; }
    Cycle rdAllowedAt() const { return rdAllowedAt_; }
    Cycle wrAllowedAt() const { return wrAllowedAt_; }
    Cycle preAllowedAt() const { return preAllowedAt_; }
    /** @} */

  private:
    const TimingParams *timing_;
    RowId openRow_ = kNoRow;
    Cycle actAllowedAt_ = 0;
    Cycle rdAllowedAt_ = 0;
    Cycle wrAllowedAt_ = 0;
    Cycle preAllowedAt_ = 0;
};

} // namespace tcm::dram
