/**
 * @file
 * FQM: fair queueing memory scheduler (Nesbit et al., MICRO-39).
 *
 * One of the thread-aware schedulers in the paper's related-work
 * comparison ("fair queueing memory schedulers adapted variants of the
 * fair queueing algorithm from computer networks"). Included as an
 * additional baseline: it targets pure bandwidth fairness, which the
 * paper argues costs system throughput.
 */

#pragma once

#include <vector>

#include "sched/scheduler.hpp"

namespace tcm::sched {

/** FQM configuration. */
struct FqmParams
{
    Cycle updatePeriod = 256; //!< rank recomputation period (cycles)
};

/**
 * Thread-granularity start-time fair queueing: each thread carries a
 * virtual time that advances by (bank service cycles / weight) whenever
 * the memory system works on its behalf; the thread with the smallest
 * virtual time is ranked highest, so bandwidth converges to weighted
 * equal shares.
 *
 * The classic idle-thread problem (a thread that slept for a while has
 * an ancient virtual time and would monopolize the system on return) is
 * handled the standard way: on each update, every thread's virtual time
 * is clamped up to the minimum virtual time among threads that currently
 * have outstanding requests.
 */
class Fqm : public SchedulerPolicy
{
  public:
    explicit Fqm(const FqmParams &params);

    const char *name() const override { return "FQM"; }

    void configure(const Wiring &wiring) override;

    void onArrival(const Request &req, Cycle now) override;
    void onDepart(const Request &req, Cycle now) override;
    void onCommand(const Request &req, dram::CommandKind kind, Cycle now,
                   Cycle occupancy) override;
    void tick(Cycle now) override;

    /** Only timed event: the next rank recomputation. */
    Cycle nextEventAt(Cycle) const override { return nextUpdateAt_; }

    /** Current virtual time of @p thread (tests). */
    double virtualTime(ThreadId thread) const { return vtime_[thread]; }

  private:
    FqmParams params_;
    std::vector<double> vtime_;
    std::vector<int> outstanding_;
    Cycle nextUpdateAt_ = 0;
};

} // namespace tcm::sched
