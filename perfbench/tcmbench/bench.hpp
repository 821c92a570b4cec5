/**
 * @file
 * tcmbench: host-time benchmark of tcmsim's public experiment API.
 *
 * One process runs one workload (a closed loop: a fixed job list drained
 * by a tcm::ThreadPool) and prints every metric by name with its unit.
 * Every number is host time — what the simulator costs — never simulated
 * time. This header holds the pieces the workloads share and the
 * benchmark's own tests exercise: order statistics, output checks, the
 * in-memory span recorder and the sweepd fleet manifest generator.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/sweepd.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// -- order statistics --------------------------------------------------------

/** Median (mean of the middle pair for even counts); 0 when empty. */
double median(std::vector<double> values);

/**
 * A timing's tail: the highest percentile of a fixed ladder (50, 75, 90,
 * 95, 99, 99.9) that leaves at least kTailBeyond samples strictly above
 * its value, with the sample count that makes it meaningful.
 */
struct Tail
{
    bool ok = false;        //!< some ladder percentile qualified
    double pct = 0.0;       //!< the chosen percentile
    double value = 0.0;     //!< its value
    std::size_t samples = 0;
    std::size_t beyond = 0; //!< samples strictly above value
};

inline constexpr std::size_t kTailBeyond = 10;

Tail tailOf(const std::vector<double> &values);

// -- output checks -----------------------------------------------------------

/** What a grid job's correctness is judged on: the per-thread shared
 *  IPC vector and the three paper metrics, compared bit for bit. */
struct JobOutput
{
    std::vector<double> ipc;
    double ws = 0.0;
    double ms = 0.0;
    double hs = 0.0;
};

/** Empty when @p got equals @p want in every bit, else what differs. */
std::string outputMismatch(const JobOutput &want, const JobOutput &got);

/** Empty when the JSONL stream @p got is byte-identical to @p want, else
 *  both sizes (truncation, reordering and corrupted bytes all land here). */
std::string streamMismatch(const std::string &want, const std::string &got);

/**
 * Empty when a warm-store sweepd pass is clean: the run succeeded, and
 * every alone-IPC denominator came from the store (cacheMisses == 0).
 * @p expectFinished is false for the first half of a stopped pass.
 */
std::string warmPassProblem(const tcm::sim::sweepd::RunOutcome &outcome,
                            bool expectFinished);

// -- spans -------------------------------------------------------------------

/**
 * In-memory span recorder. Spans of one job share a job id; a span's
 * cause is the span enclosing it on the same lane (thread), which is how
 * Perfetto nests complete events. Written once, at the end of the traced
 * run, as Chrome trace-event JSON (the array form the telemetry sink
 * emits). A disabled recorder (an untraced run's) records nothing, so
 * each span site costs one branch.
 */
class SpanLog
{
  public:
    struct Record
    {
        std::string name;
        std::uint64_t job = 0;
        int lane = 0;
        double startUs = 0.0;
        double durUs = 0.0;
    };

    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    void record(const std::string &name, std::uint64_t job,
                Clock::time_point start, Clock::time_point end);

    std::vector<Record> records() const;

    /** Chrome trace-event JSON array; throws on I/O failure. */
    void writeChromeTrace(const std::string &path,
                          const std::string &process) const;

  private:
    const bool enabled_;
    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mutex_; //!< guards records_
    std::vector<Record> records_;
};

/** RAII span: times its scope into @p log (no-op when log is disabled). */
class Span
{
  public:
    Span(SpanLog &log, std::string name, std::uint64_t job);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanLog &log_;
    std::string name_;
    std::uint64_t job_;
    Clock::time_point start_;
};

// -- fleet manifest ----------------------------------------------------------

/** Schedulers, protocols and intensities of the fleet, in manifest order. */
const std::vector<std::string> &fleetSchedulers();
const std::vector<std::string> &fleetProtocols();
const std::vector<double> &fleetIntensities();

/** Interval-sampling spec of every fleet job (W:K:WARMUP). */
inline constexpr const char *kFleetSample = "14000:3:30000";

/**
 * The fleet's sweepd manifest text for workload seed @p seed: every
 * (protocol, intensity, scheduler) combination once, each job with its
 * own mix and trace seed. Seeds are distinct per job, so no two jobs share a
 * (scheduler, seed) pair — runWorkload names TCMSIM_PROFILE files
 * "<scheduler>_seed<N>", and a shared pair would overwrite a file.
 */
std::string fleetManifest(std::uint64_t seed);

} // namespace perfbench
