/**
 * @file
 * One DRAM channel: one or more ranks of banks plus shared command and
 * data buses.
 */

#pragma once

#include <utility>
#include <vector>

#include "common/types.hpp"
#include "dram/bank.hpp"
#include "dram/command.hpp"
#include "dram/observer.hpp"
#include "dram/rank.hpp"
#include "dram/timing.hpp"

namespace tcm::dram {

/**
 * Aggregates bank, rank and bus constraints behind a single
 * `canIssue`/`issue` interface the memory controller drives. One command
 * may occupy the command bus per tCK; read/write data bursts occupy the
 * shared data bus (with a tRTRS gap when consecutive bursts come from
 * different ranks); column commands are separated channel-wide by
 * tCCD_L when they target the same bank group as the previous column
 * command and tCCD_S otherwise (equal values outside DDR4, reducing to
 * the classic single tCCD).
 *
 * Banks are numbered contiguously across ranks: bank ids
 * [r * banksPerRank, (r+1) * banksPerRank) belong to rank r. Rank-level
 * constraints (tRRD, tFAW, tWTR) and refresh apply per rank.
 */
class Channel
{
  public:
    /** @param id channel id stamped onto observed command events. */
    explicit Channel(const TimingParams &timing, ChannelId id = 0);

    /**
     * Replace the observers that receive every issued command (and
     * auto-precharge rider) as a CommandEvent, in list order. Observers
     * are purely passive; with none the notification cost is one empty()
     * check per command.
     */
    void observe(std::vector<CommandObserver *> observers)
    {
        observers_ = std::move(observers);
    }

    int numBanks() const { return static_cast<int>(banks_.size()); }
    int numRanks() const { return static_cast<int>(ranks_.size()); }

    const Bank &bank(BankId b) const { return banks_[b]; }

    /** Rank that bank @p b belongs to. */
    int rankOf(BankId b) const { return b / timing_->banksPerRank(); }

    /** True if the command bus can accept a command at @p now. */
    bool cmdBusFree(Cycle now) const { return now >= cmdBusFreeAt_; }

    /**
     * First cycle the command bus is free again (earliest-ready bound
     * for the cycle-skipping kernel: no command can issue before this).
     */
    Cycle cmdBusFreeAt() const { return cmdBusFreeAt_; }

    /**
     * True if command @p kind targeting bank @p b (row match for RD/WR
     * is the caller's concern) is legal at @p now, including bank, rank
     * and bus constraints. For Refresh, @p b names any bank of the rank
     * to refresh. The command bus must also be free (checked here).
     */
    bool canIssue(CommandKind kind, BankId b, Cycle now) const;

    /**
     * Issue the command; asserts `canIssue`. For ACT, @p row names the row
     * to open. Returns occupancy/data-window info for attribution.
     */
    IssueResult issue(CommandKind kind, BankId b, RowId row, Cycle now);

    /**
     * Auto-precharge rider on the column command just issued to @p b
     * (closed-page policy). Returns the precharge occupancy (tRP).
     */
    Cycle autoPrecharge(BankId b);

    /** True when every bank in every rank is precharged. */
    bool allBanksPrecharged() const;

    /** True when every bank of rank @p rank is precharged. */
    bool rankPrecharged(int rank) const;

    /** True when rank @p rank is in precharge power-down. */
    bool rankPoweredDown(int rank) const
    {
        return ranks_[rank].poweredDown();
    }

    /** Earliest cycle a PowerUp to rank @p rank could issue. */
    Cycle rankPowerUpAllowedAt(int rank) const
    {
        return ranks_[rank].earliestPowerUp();
    }

    /** Power-down cycles of rank @p rank through @p now (energy). */
    Cycle rankPowerDownCycles(int rank, Cycle now) const
    {
        return ranks_[rank].powerDownCycles(now);
    }

    /**
     * Lower bound on the first cycle at which @p kind could issue to
     * bank @p b, assuming no further commands issue in between. Never
     * later than the true time, so a scheduler may sleep until it.
     * Returns kCycleNever when the command is ineligible regardless of
     * time (e.g. RD to a precharged bank).
     */
    Cycle earliestIssue(CommandKind kind, BankId b) const;

  private:
    /** Report one command (or auto-precharge rider) to all observers. */
    void notifyObservers(CommandKind kind, BankId b, RowId row, Cycle now,
                         bool autoPre) const;

    /**
     * Earliest cycle a column command to global bank group @p group may
     * issue under the tCCD_S/tCCD_L split (0 when no column command has
     * issued yet).
     */
    Cycle colAllowedAt(int group) const;

    const TimingParams *timing_;
    ChannelId id_;
    std::vector<Rank> ranks_;
    std::vector<Bank> banks_;
    std::vector<CommandObserver *> observers_;
    Cycle cmdBusFreeAt_ = 0;
    Cycle dataBusFreeAt_ = 0;
    Cycle lastColCmdAt_ = 0;    //!< last column command (tCCD base)
    int lastColGroup_ = -1;     //!< its global bank group; -1 = none yet
    Cycle lastIssueCycle_ = 0;  //!< stamps auto-precharge rider events
    int lastBurstRank_ = -1;    //!< for the tRTRS rank-switch gap
};

} // namespace tcm::dram
