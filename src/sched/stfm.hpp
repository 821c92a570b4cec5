/**
 * @file
 * STFM: Stall-Time Fair Memory scheduling (Mutlu & Moscibroda, MICRO-40).
 */

#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "dram/timing.hpp"
#include "sched/scheduler.hpp"
#include "sched/tcm/monitor.hpp"

namespace tcm::sched {

/** STFM configuration (paper Section 6 defaults). */
struct StfmParams
{
    double fairnessThreshold = 1.1;       //!< unfairness trigger (alpha)
    Cycle intervalLength = Cycle{1} << 24; //!< statistics aging interval
    Cycle updatePeriod = 1024;            //!< rank recomputation period
    Cycle tRowPenalty = 150;              //!< tRP + tRCD, for row interference
};

/**
 * STFM estimates, in the controller, each thread's memory-related
 * slowdown S = T_shared / T_alone, where T_alone is approximated as
 * T_shared minus the extra stall caused by other threads:
 *
 *  - T_shared accumulates while the thread has outstanding reads;
 *  - interference accumulates when a bank holding this thread's requests
 *    is kept busy on behalf of another thread, and when a request that
 *    would have hit its row-buffer alone (shadow row-buffer) is serviced
 *    with an activate because another thread closed the row.
 *
 * When max(S)/min(S) exceeds FairnessThreshold, the most-slowed thread's
 * requests are prioritized; otherwise the controller behaves as FR-FCFS.
 * Statistics are halved every IntervalLength cycles so estimates track
 * phase changes.
 */
class Stfm : public SchedulerPolicy
{
  public:
    explicit Stfm(const StfmParams &params);

    const char *name() const override { return "STFM"; }

    void configure(const Wiring &wiring) override;

    void onArrival(const Request &req, Cycle now) override;
    void onDepart(const Request &req, Cycle now) override;
    void onCommand(const Request &req, dram::CommandKind kind, Cycle now,
                   Cycle occupancy) override;
    void tick(Cycle now) override;

    /** Timed events: next rank update or statistics-halving interval.
     *  Stall-time accrual is caught up lazily (see syncTo), so it does
     *  not constrain the horizon. */
    Cycle
    nextEventAt(Cycle) const override
    {
        return nextUpdateAt_ < nextIntervalAt_ ? nextUpdateAt_
                                               : nextIntervalAt_;
    }

    /**
     * Accrue shared stall time for cycles (lastAccruedAt_, now]. Exact
     * replacement for the per-cycle "+1 while outstanding" loop: the
     * outstanding counters only change through arrival/departure hooks,
     * which fire at executed cycles, so they are constant over any
     * skipped span; and the repeated +1.0 equals one +n in double
     * precision at these magnitudes (< 2^26 against 52 mantissa bits).
     */
    void syncTo(Cycle now) override;

    /** Current slowdown estimate for @p thread (tests/benches). */
    double slowdownEstimate(ThreadId thread) const;

    const StfmParams &params() const { return params_; }

  private:
    void updateRanks(Cycle now);

    StfmParams params_;
    ThreadBankMonitor monitor_; //!< global-bank loads + shadow rows
    std::vector<std::uint64_t> outstanding_;  //!< reads in flight, global
    std::vector<double> stShared_;
    std::vector<double> interference_;
    std::unordered_set<std::uint64_t> shadowHitSeqs_;
    Cycle nextUpdateAt_ = 0;
    Cycle nextIntervalAt_ = 0;
    /** Stall accrued through this cycle; kCycleNever = no tick yet
     *  (the first tick accrues exactly one cycle, like the historical
     *  per-call "+1"). */
    Cycle lastAccruedAt_ = kCycleNever;
};

} // namespace tcm::sched
