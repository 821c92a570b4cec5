/**
 * @file
 * The in-memory TelemetrySink the simulation layers push into: it
 * aggregates everything one run emits and serializes it to JSONL or
 * Chrome trace-event format (Perfetto).
 */

#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/running_stat.hpp"
#include "common/types.hpp"
#include "stats/histogram.hpp"
#include "telemetry/telemetry.hpp"

namespace tcm::telemetry {

/**
 * Everything one run's telemetry recorded, in one value type: interval
 * time series (ring-buffered), the decision-event trace, and per-thread
 * lifecycle latency statistics. One sink serves exactly one run — the
 * parallel experiment runner creates one per worker task, so sinks need
 * no internal synchronization.
 */
class TelemetrySink
{
  public:
    /** Run identity stamped into the serialized output. */
    struct Meta
    {
        std::string scheduler;
        int numThreads = 0;
        int numChannels = 0;
        Cycle sampleInterval = 0;
        std::uint64_t seed = 0;
    };

    /** Per-thread lifecycle statistics (reads only). */
    struct ThreadLifecycle
    {
        RunningStat queueing;
        RunningStat service;
        stats::Histogram queueingHist;
        stats::Histogram serviceHist;

        ThreadLifecycle();
    };

    explicit TelemetrySink(const TelemetryConfig &config = {});

    const TelemetryConfig &config() const { return config_; }

    void setMeta(Meta meta) { meta_ = std::move(meta); }
    const Meta &meta() const { return meta_; }

    // -- ingestion ----------------------------------------------------------

    void addThreadSample(const ThreadSample &sample);
    void addChannelSample(const ChannelSample &sample);

    /**
     * Profiler self-observation sample (simulator wall clock / skip
     * progress). Rendered only in the Chrome trace "simulator" lane;
     * deliberately excluded from writeJsonl and droppedRecords() so the
     * JSONL bytes stay identical with and without a profiler attached.
     */
    void addSimulatorSample(const SimulatorSample &sample);

    /**
     * Scheduler-decision event. Schedulers hold a nullable pointer to
     * the sink (SchedulerPolicy::setDecisionSink) and emit only when
     * attached: one branch per decision point (quantum boundary, batch
     * formation), never per cycle.
     */
    void onDecision(DecisionEvent event);

    /**
     * Per-read lifecycle breakdown from a memory controller: @p queueing
     * cycles from controller-queue arrival to the column command
     * (scheduling delay), @p service cycles from the column command to
     * data delivery at the core.
     */
    void recordLifecycle(ThreadId thread, Cycle queueing, Cycle service);

    // -- introspection (tests, reports) -------------------------------------

    const RingBuffer<ThreadSample> &threadSamples() const { return threadSamples_; }
    const RingBuffer<ChannelSample> &channelSamples() const { return channelSamples_; }
    const RingBuffer<DecisionEvent> &events() const { return events_; }
    const RingBuffer<SimulatorSample> &simulatorSamples() const
    {
        return simulatorSamples_;
    }

    /** Newest retained event named @p name, or nullptr. */
    const DecisionEvent *lastEvent(const std::string &name) const;

    /** Retained events named @p name, oldest to newest. */
    std::vector<const DecisionEvent *>
    eventsNamed(const std::string &name) const;

    /** Lifecycle stats of @p thread (empty stats when never recorded). */
    const ThreadLifecycle &lifecycle(ThreadId thread) const;

    int lifecycleMaxThread() const
    {
        return static_cast<int>(lifecycles_.size()) - 1;
    }

    /** Total telemetry records ingested (samples + events + lifecycle). */
    std::uint64_t totalRecords() const;

    /** Lifecycle records ingested. */
    std::uint64_t lifecycleRecords() const { return lifecycleRecords_; }

    /** Samples/events evicted by the ring capacity bounds. */
    std::uint64_t droppedRecords() const;

    // -- serialization ------------------------------------------------------

    /**
     * One self-describing JSON object per line: a `meta` header, every
     * retained `thread_sample` / `channel_sample` / `event` in cycle
     * order per series, per-thread `lifecycle` summaries, and a `tail`
     * line with drop counts. Throws std::runtime_error on I/O failure.
     */
    void writeJsonl(const std::string &path) const;
    void writeJsonl(std::FILE *out) const;

    /**
     * Chrome trace-event JSON array, loadable in Perfetto / chrome://
     * tracing: counter tracks for the interval series, instant events
     * for scheduler decisions (ts = CPU cycle). Throws on I/O failure.
     */
    void writeChromeTrace(const std::string &path) const;
    void writeChromeTrace(std::FILE *out) const;

  private:
    ThreadLifecycle &growLifecycle(ThreadId thread);

    TelemetryConfig config_;
    Meta meta_;
    RingBuffer<ThreadSample> threadSamples_;
    RingBuffer<ChannelSample> channelSamples_;
    RingBuffer<DecisionEvent> events_;
    RingBuffer<SimulatorSample> simulatorSamples_;
    std::vector<ThreadLifecycle> lifecycles_;
    std::uint64_t lifecycleRecords_ = 0;
};

} // namespace tcm::telemetry
