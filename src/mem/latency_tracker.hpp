/**
 * @file
 * Per-thread read-latency tracking for one memory controller.
 */

#pragma once

#include <vector>

#include "common/running_stat.hpp"
#include "common/types.hpp"
#include "stats/histogram.hpp"

namespace tcm::mem {

/**
 * Records end-to-end read latencies (core issue to data delivery) per
 * thread and in aggregate. Histograms use a geometric bucket ladder from
 * 100 cycles (sub-row-hit) to ~2M cycles, so percentiles stay accurate
 * from uncontended hits to pathological starvation.
 */
class LatencyTracker
{
  public:
    LatencyTracker();

    void record(ThreadId thread, Cycle latency);

    /** All-thread latency histogram. */
    const stats::Histogram &histogram() const { return aggregate_; }

    /** Per-thread moment statistics (empty slot if never recorded). */
    const RunningStat &threadStats(ThreadId t) const;

    /** Per-thread histogram (shared bucket ladder; mergeable). */
    const stats::Histogram &threadHistogram(ThreadId t) const;

    void reset();

  private:
    void grow(ThreadId t);

    stats::Histogram aggregate_;
    std::vector<RunningStat> perThread_;
    std::vector<stats::Histogram> perThreadHist_;
};

} // namespace tcm::mem
