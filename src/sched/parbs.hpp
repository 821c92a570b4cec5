/**
 * @file
 * PAR-BS: Parallelism-Aware Batch Scheduling (Mutlu & Moscibroda,
 * ISCA-35). The paper's best-fairness baseline.
 */

#pragma once

#include <vector>

#include "sched/scheduler.hpp"

namespace tcm::sched {

/** PAR-BS configuration. */
struct ParBsParams
{
    int batchCap = 5; //!< Marking-Cap: marked requests per (thread, bank)
};

/**
 * Requests are grouped into batches: when no marked request remains at a
 * controller, up to batchCap of the oldest reads per (thread, bank) are
 * marked. Marked requests are strictly prioritized over unmarked ones,
 * which bounds any thread's wait to one batch (fairness). Within a
 * batch, threads are ranked shortest-job-first using the max-total rule
 * (ascending maximum per-bank load, then ascending total load), which
 * preserves intra-thread bank-level parallelism. Row hits rank above
 * thread rank inside the batch (the published rule order: BS > RH >
 * RANK > FCFS).
 *
 * Batching is per controller; the original algorithm was formulated for
 * a single controller and its batch boundary has no cross-controller
 * synchronization requirement.
 */
class ParBs : public SchedulerPolicy
{
  public:
    explicit ParBs(const ParBsParams &params);

    const char *name() const override { return "PAR-BS"; }

    void configure(const Wiring &wiring) override;

    void onArrival(const Request &req, Cycle now) override;
    void onDepart(const Request &req, Cycle now) override;
    void tick(Cycle now) override;

    /**
     * A batch can only form at a channel that has queued reads and no
     * marked requests left; whether that holds changes only through the
     * arrival/departure hooks, which fire at executed cycles. So: next
     * tick if any channel is batch-ready now, never otherwise.
     */
    Cycle nextEventAt(Cycle now) const override;

    bool rowHitAboveRank() const override { return true; }

    /** Marked requests currently outstanding at @p ch (tests). */
    int markedRemaining(ChannelId ch) const { return markedRemaining_[ch]; }

    const ParBsParams &params() const { return params_; }

  private:
    void formBatch(ChannelId ch, Cycle now);

    ParBsParams params_;
    std::vector<int> markedRemaining_;        //!< per channel
    std::vector<int> queuedReads_;            //!< visible reads per channel
};

} // namespace tcm::sched
