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
 * thread ranks, which the controller reads every decision.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "dram/command.hpp"
#include "mem/request.hpp"

namespace tcm::telemetry {
class DecisionSink;
}

namespace tcm::mem {

/** Per-core retired-instruction/miss counters a scheduler may consult. */
struct CoreCounters
{
    std::uint64_t instructions = 0;
    std::uint64_t readMisses = 0;
};

/** Mutable access to a controller's read queue (PAR-BS batch marking). */
class QueueAccess
{
  public:
    virtual ~QueueAccess() = default;

    /** The queued (visible, not yet departed) read requests. */
    virtual std::vector<Request> &readQueue() = 0;

    /**
     * Invoke @p fn on every queued read. Templated so scheduler hot
     * loops pay one virtual call per scan instead of one indirect
     * std::function call per request.
     */
    template <typename Fn>
    void
    forEachRead(Fn &&fn)
    {
        for (Request &req : readQueue())
            fn(req);
    }
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

    // -- wiring (called once before simulation starts) ---------------------

    /** Number of threads and channels in the system. */
    virtual void
    configure(int numThreads, int numChannels, int banksPerChannel)
    {
        numThreads_ = numThreads;
        numChannels_ = numChannels;
        banksPerChannel_ = banksPerChannel;
        queues_.assign(numChannels, nullptr);
    }

    /** Controller registers its queue for direct scheduler access. */
    virtual void
    attachQueue(ChannelId ch, QueueAccess *queue)
    {
        queues_.at(ch) = queue;
    }

    /** Simulator publishes per-core counters (for MPKI-style metrics). */
    virtual void
    setCoreCounters(const std::vector<CoreCounters> *counters)
    {
        coreCounters_ = counters;
    }

    /**
     * OS-assigned thread weights (Section 3.6). Called after configure();
     * schedulers that do not support weights ignore them.
     */
    virtual void setThreadWeights(const std::vector<int> & /*weights*/) {}

    /**
     * Attach a decision-trace sink (nullptr detaches). Schedulers with
     * internal decision points (quantum boundaries, batch formation,
     * rank updates) emit a DecisionEvent describing each one; policies
     * without dynamic decisions ignore the sink. Detached cost is one
     * branch per decision point — never per cycle or per request.
     */
    virtual void
    setDecisionSink(telemetry::DecisionSink *sink)
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

    /**
     * Monotonically increasing counter bumped whenever the rank vector
     * (or any prioritization knob) may have changed. Controllers cache
     * rankOf per scan and only rebuild when the epoch moves, so a
     * policy MUST bump on every rank mutation. Starts at 1 so a
     * controller's epoch-0 cache is always considered stale.
     */
    virtual std::uint64_t rankEpoch() const { return rankEpoch_; }

    // -- prioritization knobs ------------------------------------------------

    /**
     * Rank of @p thread at controller @p ch; larger means higher priority.
     * Default: all threads equal.
     */
    virtual int rankOf(ChannelId /*ch*/, ThreadId /*thread*/) const { return 0; }

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
    /** Record that ranks (or another knob) may have changed. */
    void bumpRankEpoch() { ++rankEpoch_; }

    int numThreads_ = 0;
    int numChannels_ = 0;
    int banksPerChannel_ = 0;
    std::vector<QueueAccess *> queues_;
    const std::vector<CoreCounters> *coreCounters_ = nullptr;
    telemetry::DecisionSink *decisionSink_ = nullptr;

  private:
    std::uint64_t rankEpoch_ = 1;
};

} // namespace tcm::mem
