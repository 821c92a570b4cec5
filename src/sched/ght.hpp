/**
 * @file
 * GHT: a read-history scheduler in the style of the USIMM memory
 * scheduling championship entries (per-CPU global history tables with
 * saturating reference counts, low-traffic boost, rotating priority
 * among intensive threads).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "sched/scheduler.hpp"

namespace tcm::sched {

/** GHT configuration (championship-style defaults, cycle-scaled). */
struct GhtParams
{
    /** Statistics interval: reclassify threads and decay the history
     *  tables every this many cycles (the exemplar's MAX_INTERVAL,
     *  scaled to the run by SchedulerSpec::scaleToRun). */
    Cycle interval = 1'000'000;

    /** Rotation period among the intensive threads (the exemplar's
     *  quantum — a locality-scale constant, not scaled to the run). */
    Cycle rotatePeriod = 1'000;

    /** A thread is latency-sensitive ("boosted") when its interval read
     *  count times this factor is below the heaviest thread's count. */
    int boostFactor = 8;

    /** Per-thread history table entries (direct-mapped by row hash). */
    int tableSize = 512;

    /** Saturation ceiling of a history entry's reference count. */
    int maxRefCount = 127;
};

/**
 * Port of the championship read-history approach onto the rank-knob
 * interface. Each thread owns a direct-mapped global history table of
 * recently served (channel, bank, row) keys with saturating reference
 * counts — a cheap proxy for that thread's row reuse. Every interval the
 * policy classifies threads: low-traffic threads (interval reads far
 * below the heaviest thread's) are latency-sensitive and pinned to a
 * persistent top priority band; the remaining intensive threads are
 * ordered by descending row-reuse (higher reuse anchors higher, so
 * row-local threads keep their locality) and then *rotated* one step
 * every rotatePeriod cycles so no intensive thread camps at the top —
 * the same fairness-by-rotation idea TCM's shuffle formalizes.
 *
 * Fast-path contract: both timed events (interval, rotation) are pure
 * timers; hooks only accumulate read counts and history-table hits that
 * the boundaries consume, so nextEventAt is the nearer boundary, exactly
 * like ATLAS/FQM.
 */
class Ght : public SchedulerPolicy
{
  public:
    explicit Ght(const GhtParams &params);

    const char *name() const override { return "GHT"; }

    void configure(const Wiring &wiring) override;

    void onDepart(const Request &req, Cycle now) override;
    void tick(Cycle now) override;

    /** Timed events: the nearer of interval and rotation boundaries. */
    Cycle
    nextEventAt(Cycle) const override
    {
        return nextIntervalAt_ < nextRotateAt_ ? nextIntervalAt_
                                               : nextRotateAt_;
    }

    const GhtParams &params() const { return params_; }

  private:
    void reclassify(Cycle now);
    void publishRanks();

    /** One direct-mapped history entry. */
    struct Entry
    {
        std::uint64_t tag = 0;
        std::uint8_t refCount = 0;
    };

    GhtParams params_;
    std::vector<std::vector<Entry>> history_;  //!< [thread][slot]
    std::vector<std::uint64_t> intervalReads_; //!< reads this interval
    std::vector<std::uint64_t> intervalHits_;  //!< history hits this interval
    std::vector<std::uint8_t> boosted_;        //!< latency-sensitive band
    std::vector<ThreadId> heavyOrder_;         //!< intensive threads, reuse-sorted
    int rotateOffset_ = 0;
    Cycle nextIntervalAt_ = 0;
    Cycle nextRotateAt_ = 0;
};

} // namespace tcm::sched
