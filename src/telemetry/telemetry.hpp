/**
 * @file
 * In-run telemetry value types: configuration knobs, interval samples,
 * scheduler-decision events, and the bounded ring buffer that stores
 * them.
 *
 * The telemetry layer is strictly passive: it records what the
 * simulation did, never influences what it does. Everything hangs off
 * the detachable-observer pattern — with no sink attached the simulator
 * performs zero telemetry calls on the hot path (one never-taken
 * compare per cycle), and results are bit-identical either way.
 */

#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace tcm::telemetry {

/**
 * Telemetry knobs, carried on sim::SystemConfig. `enabled` is the
 * master switch read by the experiment drivers (sim::runWorkload); the
 * lower-level Simulator::attach API works regardless. An attached sink
 * receives scheduler-decision events, per-read lifecycle breakdowns and
 * (when sampleInterval > 0) interval samples.
 */
struct TelemetryConfig
{
    /** Experiment drivers attach a sink, and the behaviour probe, to
     *  every run when set. */
    bool enabled = false;

    /** Cycles between interval samples; 0 disables the sampler. */
    Cycle sampleInterval = 10'000;

    /**
     * When non-empty, experiment drivers serialize each run's sink to
     * `<dir>/<filePrefix><scheduler>_seed<seed>.jsonl` and
     * `....trace.json`. The naming is deterministic, so the parallel
     * runner (one sink per worker task) writes a stable file set
     * regardless of thread count.
     */
    std::string dir;
    std::string filePrefix;
};

/** Capacity of each telemetry ring (every sample series and the
 *  decision events); older entries are evicted and counted. */
inline constexpr std::size_t kRingCapacity = 1 << 16;

/** Sentinel for "gauge not measured" (probe off / no traffic). */
inline constexpr double kNoGauge =
    std::numeric_limits<double>::quiet_NaN();

/** True when @p v carries a measured value (not kNoGauge). */
inline bool
hasGauge(double v)
{
    return !std::isnan(v);
}

/** One per-thread interval sample (gauges over the last interval). */
struct ThreadSample
{
    Cycle cycle = 0;
    ThreadId thread = 0;
    double ipc = 0.0;         //!< interval instructions / interval cycles
    double mpki = 0.0;        //!< interval misses per 1000 instructions
    double rbl = kNoGauge;    //!< interval shadow row-buffer hit rate
    double blp = kNoGauge;    //!< instantaneous banks-with-load
    double outstanding = kNoGauge; //!< instantaneous outstanding reads
};

/** One per-channel interval sample. */
struct ChannelSample
{
    Cycle cycle = 0;
    ChannelId channel = 0;
    std::uint32_t readQueue = 0;  //!< instantaneous read-queue load
    std::uint32_t writeQueue = 0; //!< instantaneous write-queue load
    double rowHitRate = kNoGauge; //!< interval row-hit rate (null if idle)
    double cmdBusUtil = 0.0;      //!< interval command-bus utilization
    double dataBusUtil = 0.0;     //!< interval data-bus utilization
};

/**
 * One self-observation sample from the simulator's own profiler
 * (tcm::prof): cumulative host wall-clock milliseconds and cycle-skip
 * progress at a simulated cycle. Emitted only when a Profiler is
 * attached alongside telemetry, and serialized exclusively into the
 * Chrome trace's "simulator" lane — the JSONL byte stream is part of
 * the bit-identity contract and never carries these.
 */
struct SimulatorSample
{
    Cycle cycle = 0;
    double wallMs = 0.0;            //!< host wall clock since attach
    std::uint64_t skips = 0;        //!< cumulative horizon jumps taken
    std::uint64_t skippedCycles = 0; //!< cumulative cycles jumped over
};

/**
 * One scheduler-decision event. `args` carries (key, value) pairs whose
 * values are already JSON-encoded text (see the json* helpers below),
 * so serialization is a string join and tests can introspect values
 * without a JSON library.
 */
struct DecisionEvent
{
    Cycle cycle = 0;
    std::string name;     //!< e.g. "tcm.quantum", "parbs.batch"
    std::string category; //!< Chrome trace category, e.g. "sched"
    std::vector<std::pair<std::string, std::string>> args;

    /** Raw JSON text of @p key, or empty when absent. */
    const std::string &arg(const std::string &key) const;
};

/** @{ JSON value encoding for DecisionEvent args and the writers. */
std::string jsonNumber(double v);
std::string jsonNumber(std::uint64_t v);
std::string jsonNumber(std::int64_t v);
std::string jsonArray(const std::vector<int> &v);
std::string jsonArray(const std::vector<double> &v);
/** @} */

/**
 * Bounded FIFO that drops the *oldest* element on overflow and counts
 * what it dropped — a telemetry series must never grow unbounded with
 * run length, and must never pretend it kept everything.
 */
template <typename T>
class RingBuffer
{
  public:
    explicit RingBuffer(std::size_t capacity) : capacity_(capacity) {}

    void
    push(const T &value)
    {
        if (capacity_ == 0) {
            ++dropped_;
            return;
        }
        if (data_.size() < capacity_) {
            data_.push_back(value);
            return;
        }
        data_[head_] = value;
        head_ = (head_ + 1) % capacity_;
        ++dropped_;
    }

    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    /** Elements evicted (or refused) because of the capacity bound. */
    std::uint64_t dropped() const { return dropped_; }

    /** Element @p i in insertion order (0 = oldest retained). */
    const T &
    at(std::size_t i) const
    {
        return data_[(head_ + i) % data_.size()];
    }

    /** Newest element; undefined when empty. */
    const T &back() const { return at(size() - 1); }

    /** Visit all retained elements, oldest to newest. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < data_.size(); ++i)
            fn(at(i));
    }

  private:
    std::size_t capacity_;
    std::vector<T> data_;
    std::size_t head_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace tcm::telemetry
