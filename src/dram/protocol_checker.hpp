/**
 * @file
 * Independent per-protocol (DDR2/DDR3/DDR4) checker.
 *
 * The DRAM model (`Bank`/`Rank`/`Channel`) enforces timing legality with
 * its own earliest-issue registers and `assert`s — which makes the
 * component under test its own referee. `ProtocolChecker` is the
 * independent one: it subscribes to the raw command stream through the
 * `CommandObserver` hook and re-derives every constraint of the
 * configured protocol from the trace of
 * `{cycle, channel, rank, bank, kind, row}` events alone. It shares no
 * timing-tracking code or state with the model it audits; its only
 * inputs are `TimingParams` (the datasheet numbers and geometry) and the
 * events.
 *
 * Checked constraints (one counter each):
 *   per bank   : ACT-to-ACT (tRC), PRE-to-ACT (tRP), ACT-to-col (tRCD),
 *                ACT-to-PRE (tRAS), RD-to-PRE (tRTP), WR-recovery (tWR),
 *                ACT with row open, column command to a closed bank or
 *                the wrong row, PRE with no row open
 *   per rank   : ACT-to-ACT (tRRD — split into tRRD_S/tRRD_L across and
 *                within bank groups when the protocol defines groups),
 *                rolling four-activate window (tFAW), WR-to-RD
 *                turnaround (tWTR), refresh with a row open,
 *                post-refresh lockout (tRFC), tREFI refresh obligation
 *   per channel: one command per tCK on the command bus, data-bus burst
 *                overlap including the tRTRS rank-switch gap, column
 *                command spacing (tCCD — split into tCCD_S/tCCD_L when
 *                the protocol defines bank groups)
 *
 * Violations are never asserted — they are recorded as data (a detailed
 * report for the first few, a per-constraint counter for all), so the
 * audit works identically in builds where `NDEBUG` elides the model's
 * own asserts.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "dram/observer.hpp"
#include "dram/timing.hpp"
#include "stats/counters.hpp"

namespace tcm::dram {

/** Every constraint the checker can flag. */
enum class Constraint : std::size_t
{
    CmdBusConflict,  //!< two commands within one tCK on the channel
    ActRowOpen,      //!< ACT while the bank already has a row open
    Trc,             //!< ACT sooner than tRC after the previous ACT
    Trp,             //!< ACT/REF sooner than tRP after a precharge began
    Trcd,            //!< RD/WR sooner than tRCD after the opening ACT
    ColClosedBank,   //!< RD/WR with no row open
    ColWrongRow,     //!< RD/WR whose row differs from the open row
    Tras,            //!< PRE sooner than tRAS after the opening ACT
    Trtp,            //!< PRE sooner than tRTP after the last RD
    Twr,             //!< PRE before write recovery completed
    Tccd,            //!< column command sooner than tCCD after the last
    Trrd,            //!< ACT sooner than tRRD after an ACT in the rank
    Tfaw,            //!< fifth ACT inside a rolling tFAW window
    Twtr,            //!< RD before the write-to-read turnaround elapsed
    DataBusConflict, //!< data bursts overlap (incl. the tRTRS rank gap)
    PreClosedBank,   //!< PRE (or auto-precharge) with no row open
    RefRowOpen,      //!< REF while some bank of the rank has a row open
    Trfc,            //!< ACT/REF inside tRFC after a refresh
    RefreshOverdue,  //!< rank exceeded its refresh deadline (see params)
    TccdL,           //!< same-group column command sooner than tCCD_L
    TrrdL,           //!< same-group ACT sooner than tRRD_L
    Count_,
};

/** Stable human-readable name of @p c (used in reports and tests). */
const char *constraintName(Constraint c);

/** Checker knobs. */
struct CheckerParams
{
    /**
     * A rank must be refreshed at least every
     * `refreshDeadlineFactor * tREFI` cycles (measured REF-to-REF, and
     * run-start/run-end to the nearest REF). 2.0 accommodates the
     * controller's per-rank stagger plus issue jitter while still
     * catching a disabled or wedged refresh engine; JEDEC's own bound
     * (up to eight postponed refreshes) is far looser. Ignored when
     * `TimingParams::refreshEnabled` is false.
     */
    double refreshDeadlineFactor = 2.0;

    /** Keep a detailed report for at most this many violations. */
    std::size_t maxRecordedViolations = 32;
};

/** One detected violation, with everything a human needs to debug it. */
struct Violation
{
    Constraint constraint = Constraint::Count_;
    CommandEvent offending;   //!< the command that broke the constraint
    CommandEvent reference;   //!< earlier command that armed it (if any)
    bool hasReference = false;
    /**
     * First cycle the command would have been legal, or kCycleNever for
     * state violations (wrong row, closed bank) that no amount of
     * waiting fixes. Slack = earliestLegal - offending.cycle.
     */
    Cycle earliestLegal = kCycleNever;
    std::string message;      //!< formatted one-line report
};

/**
 * The observer-based validator. Attach one instance to any number of
 * channels (events are demultiplexed by `CommandEvent::channel`), drive
 * the simulation, then inspect `violationCount()` / `violations()` /
 * `counters()`. Call `finalize(endCycle)` once at the end of the run to
 * evaluate the trailing refresh obligation.
 */
class ProtocolChecker : public CommandObserver
{
  public:
    explicit ProtocolChecker(const TimingParams &timing,
                             CheckerParams params = CheckerParams{});

    void onCommand(const CommandEvent &event) override;

    /**
     * Announce that @p ch exists even if it never issues a command, so
     * finalize() audits its refresh obligation too.
     */
    void observeChannel(ChannelId ch);

    /** End-of-run checks (trailing refresh deadline). Idempotent. */
    void finalize(Cycle endCycle);

    /** Total violations across all constraints. */
    std::uint64_t violationCount() const { return counters_.total(); }

    /** Violations of one specific constraint. */
    std::uint64_t
    countOf(Constraint c) const
    {
        return counters_.count(static_cast<std::size_t>(c));
    }

    /** Detailed reports (capped at CheckerParams::maxRecordedViolations). */
    const std::vector<Violation> &violations() const { return violations_; }

    /** Per-constraint tallies, labelled with constraintName(). */
    const stats::NamedCounters &counters() const { return counters_; }

    /** Commands audited so far (auto-precharge riders included). */
    std::uint64_t eventsAudited() const { return eventsAudited_; }

    /** Multi-line human-readable summary (empty string when clean). */
    std::string report() const;

  private:
    // Independent re-derivation state: everything below is computed
    // from observed events only.
    struct BankState
    {
        RowId openRow = kNoRow;
        bool hasAct = false;
        CommandEvent lastAct;
        bool hasRead = false;   //!< RD in the current row epoch
        CommandEvent lastRead;
        bool hasWrite = false;  //!< WR in the current row epoch
        CommandEvent lastWrite;
        bool hasPre = false;
        CommandEvent lastPre;
        Cycle preStart = 0;     //!< when the last precharge began
    };

    struct RankState
    {
        bool hasAct = false;
        CommandEvent lastAct;
        Cycle actWindow[4] = {0, 0, 0, 0}; //!< last four ACT cycles
        int actCount = 0;
        bool hasWrite = false;
        CommandEvent lastWrite;
        bool hasRef = false;
        CommandEvent lastRef;
        Cycle lastRefCycle = 0; //!< tREFI bookkeeping (run start = 0)
        // Same-group ACT spacing (tRRD_L), indexed by group-in-rank;
        // unused when the protocol has a single bank group.
        std::vector<CommandEvent> lastActPerGroup;
        std::vector<bool> hasActPerGroup;
    };

    struct ChannelState
    {
        bool hasCmd = false;
        CommandEvent lastCmd;
        bool hasBurst = false;
        CommandEvent lastBurstCmd;
        Cycle burstEnd = 0;
        int burstRank = -1;
        // Single-group protocols: column spacing (tCCD) audited per
        // rank, as always. Grouped protocols: tCCD_S audited against
        // the channel-wide last column command and tCCD_L against the
        // last column command to the same global bank group.
        std::vector<CommandEvent> lastColPerRank;
        std::vector<bool> hasColPerRank;
        std::vector<CommandEvent> lastColPerGroup;
        std::vector<bool> hasColPerGroup;
        bool hasColChan = false;
        CommandEvent lastColChan;
        std::vector<RankState> ranks;
        std::vector<BankState> banks;
    };

    ChannelState &channelState(ChannelId ch);

    void checkActivate(ChannelState &cs, const CommandEvent &ev);
    void checkColumn(ChannelState &cs, const CommandEvent &ev);
    void checkPrecharge(ChannelState &cs, const CommandEvent &ev);
    void checkAutoPrecharge(ChannelState &cs, const CommandEvent &ev);
    void checkRefresh(ChannelState &cs, const CommandEvent &ev);

    /** Effective precharge-start lower bound for a row epoch's events. */
    Cycle epochPreStart(const BankState &bank) const;

    void flag(Constraint c, const CommandEvent &ev, Cycle earliestLegal,
              const CommandEvent *reference);

    const TimingParams *timing_;
    CheckerParams params_;
    std::vector<ChannelState> channels_; //!< indexed by ChannelId
    stats::NamedCounters counters_;
    std::vector<Violation> violations_;
    std::uint64_t eventsAudited_ = 0;
    bool finalized_ = false;
};

} // namespace tcm::dram
