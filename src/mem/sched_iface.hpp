/**
 * @file
 * The policy interface between the memory controller and a scheduling
 * algorithm.
 *
 * Every scheduler in the paper reduces to a small set of knobs applied by
 * a fixed prioritization engine in the controller (the paper's
 * Algorithm 3 generalized):
 *
 *   1. over-age requests first (ATLAS's starvation threshold),
 *   2. marked requests first (PAR-BS's batch bit),
 *   3. higher-ranked thread first (rank vector from the scheduler),
 *   4. row-buffer hit first,
 *   5. oldest first.
 *
 * PAR-BS swaps tiers 3 and 4 (row-hit above rank); FCFS disables tier 4.
 * Schedulers observe the memory system through the on* hooks and publish
 * a rank table per channel through setRanks; the controllers re-read it
 * whenever the rank epoch moves.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "dram/command.hpp"
#include "mem/request.hpp"

namespace tcm::telemetry {
class TelemetrySink;
}

namespace tcm::mem {

/** Per-core retired-instruction/miss counters a scheduler may consult. */
struct CoreCounters
{
    std::uint64_t instructions = 0;
    std::uint64_t readMisses = 0;
};

/**
 * Everything a policy is wired to, handed over once by
 * SchedulerPolicy::configure before the first tick.
 */
struct Wiring
{
    int numThreads = 0;
    int numChannels = 0;
    int banksPerChannel = 0;

    /** Each channel's queued (visible, not yet departed) reads, indexed
     *  by channel; PAR-BS marks its batches through them. Empty, or a
     *  null entry, for a rig without that controller. */
    std::vector<std::vector<Request> *> readQueues{};

    /** Per-core counters (MPKI-style metrics); null for none. */
    const std::vector<CoreCounters> *coreCounters = nullptr;

    /** OS-assigned thread weights (Section 3.6), each >= 1; empty means
     *  all 1. Policies that do not support weights ignore them. */
    std::vector<int> weights{};
};

/**
 * Abstract scheduling policy. One instance governs the whole system; the
 * simulator calls tick() once per cycle, and each controller invokes the
 * observation hooks and reads the prioritization knobs.
 */
class SchedulerPolicy
{
  public:
    virtual ~SchedulerPolicy() = default;

    /** Human-readable algorithm name (for reports). */
    virtual const char *name() const = 0;

    /**
     * Wire the policy to the system. Called once, after the controllers
     * exist and before the first tick; overrides call the base first,
     * which stores the wiring and publishes an all-zero rank table.
     */
    virtual void configure(const Wiring &wiring);

    /**
     * Attach a decision-trace sink (Simulator::attach wires the run's
     * telemetry sink here; nullptr detaches). Schedulers with
     * internal decision points (quantum boundaries, batch formation,
     * rank updates) emit a DecisionEvent describing each one; policies
     * without dynamic decisions ignore the sink. Detached cost is one
     * branch per decision point — never per cycle or per request.
     */
    virtual void
    setDecisionSink(telemetry::TelemetrySink *sink)
    {
        decisionSink_ = sink;
    }

    // -- observation hooks --------------------------------------------------

    /** A request became visible in a controller queue. */
    virtual void onArrival(const Request &, Cycle /*now*/) {}

    /** A request left a queue (its column command issued). */
    virtual void onDepart(const Request &, Cycle /*now*/) {}

    /**
     * A DRAM command was issued on behalf of @p req, keeping its bank busy
     * for @p occupancy cycles. This is the "memory service time"
     * attribution of paper Section 3.2.
     */
    virtual void onCommand(const Request & /*req*/, dram::CommandKind,
                           Cycle /*now*/, Cycle /*occupancy*/) {}

    /** Called once per CPU cycle by the simulator (quanta, shuffling). */
    virtual void tick(Cycle /*now*/) {}

    // -- event horizon (cycle-skipping kernel) -------------------------------

    /**
     * Earliest cycle >= @p now at which this policy's tick() is not a
     * state-preserving no-op, assuming no observation hook fires before
     * then (the simulator re-queries after every executed cycle, so
     * hook-driven changes are always seen). Must be conservative: never
     * later than the true next event. kCycleNever means "no timed
     * events at all" (FR-FCFS, FCFS, FixedRank); a policy that cannot
     * predict may simply return @p now.
     */
    virtual Cycle nextEventAt(Cycle /*now*/) const { return kCycleNever; }

    /**
     * Catch up any per-cycle accrual through cycle @p now (inclusive).
     * Called by the cycle-skipping simulator at the end of step() so
     * external readers (tests, reports) observe the same accumulator
     * values the per-cycle loop would have produced. Policies without
     * per-cycle accrual ignore it.
     */
    virtual void syncTo(Cycle /*now*/) {}

    // -- prioritization knobs ------------------------------------------------

    /**
     * Counter that moves on every setRanks call, the only way the rank
     * table changes. Controllers re-read the table and the other knobs
     * only when it moved; a policy whose knobs below can change must
     * republish its ranks when they do (Tournament). Starts at 1, so a
     * controller that has read nothing yet (epoch 0) always reads.
     */
    std::uint64_t rankEpoch() const { return rankEpoch_; }

    /**
     * The published rank table of channel @p ch: one rank per thread id,
     * larger means higher priority. All zero (all threads equal) until
     * the policy publishes.
     */
    const std::vector<int> &ranks(ChannelId ch) const { return ranks_[ch]; }

    /** Rank of @p thread at channel @p ch. */
    int
    rankOf(ChannelId ch, ThreadId thread) const
    {
        return ranks_[ch][thread];
    }

    /**
     * Age (in cycles since arrival) beyond which a request is escalated to
     * the top priority tier. kCycleNever disables escalation.
     */
    virtual Cycle agingThreshold() const { return kCycleNever; }

    /** PAR-BS orders row-hit above thread rank. */
    virtual bool rowHitAboveRank() const { return false; }

    /** Pure FCFS ignores row-hit status. */
    virtual bool useRowHit() const { return true; }

    /**
     * Policy asks for closed-page controllers (auto-precharge once no
     * other queued request targets the open row) instead of the default
     * open-page. A construction-time property consulted once when the
     * simulator builds its controllers — never re-read during the run,
     * so it needs no rank-epoch discipline.
     */
    virtual bool prefersClosedPage() const { return false; }

  protected:
    /** Publish @p ranks (one per thread) at every channel. */
    void setRanks(const std::vector<int> &ranks);

    /** Publish @p ranks (one per thread) at channel @p ch only. */
    void setRanks(ChannelId ch, const std::vector<int> &ranks);

    /**
     * Emit decision @p name at cycle @p now with @p args (JSON-encoded
     * values, see telemetry::jsonArray) to the attached sink. Call sites
     * test decisionSink_ first, so no argument is built while detached.
     */
    void decide(Cycle now, const char *name,
                std::vector<std::pair<std::string, std::string>> args) const;

    int numThreads_ = 0;
    int numChannels_ = 0;
    int banksPerChannel_ = 0;
    std::vector<std::vector<Request> *> readQueues_; //!< null: no queue
    const std::vector<CoreCounters> *coreCounters_ = nullptr;
    std::vector<int> weights_; //!< per thread, all 1 unless wired
    telemetry::TelemetrySink *decisionSink_ = nullptr;

  private:
    std::vector<std::vector<int>> ranks_; //!< [channel][thread]
    std::uint64_t rankEpoch_ = 1;
};

} // namespace tcm::mem
