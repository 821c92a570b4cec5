/**
 * @file
 * The benchmark's workloads and the per-layer accounting they share.
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "prof/profiler.hpp"
#include "sim/experiment.hpp"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int workers = 1;
    std::string outDir; //!< scratch space for state, records and traces
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    /** Human-readable lines printed above the metrics (tails, failures). */
    std::vector<std::string> notes;
    /** Job size and shape, for the provenance block. */
    std::vector<std::pair<std::string, std::string>> scale;
    std::unique_ptr<SpanLog> spans;

    void fail(const std::string &why)
    {
        ++failed;
        if (notes.size() < 40)
            notes.push_back("FAILED: " + why);
    }
};

Result runGrid(const Options &options, double fracIntensive);
Result runFleet(const Options &options);

/** The paper schedulers' registry names, in paperSchedulers() order. */
const std::vector<std::string> &gridSchedulers();

// -- per-layer accounting ----------------------------------------------------

/**
 * One job as the layers saw it. Span and getter fields come from a job
 * the benchmark stepped itself (tracedJob); profiler fields from either
 * an attached prof::Profiler or a TCMSIM_PROFILE file.
 */
struct LayerSample
{
    std::string scheduler; //!< registry name
    double jobS = 0.0;
    double constructMs = 0.0;
    double warmupMs = 0.0;
    double measureMs = 0.0;
    std::uint64_t cycles = 0;   //!< simulated cycles (warmup + measure)
    std::uint64_t dramCmds = 0; //!< ACT + PRE + RD + WR + REF
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t insts = 0;

    bool profiled = false;
    double ctrlTickMs = 0.0;
    double scanMs = 0.0;
    double coreTickMs = 0.0;
    double schedTickMs = 0.0;
    double skipP50 = 0.0;
    std::array<std::uint64_t, tcm::prof::kHorizonSourceCount> skips{};
    std::array<std::uint64_t, tcm::prof::kRegimeCount> regimes{};
    std::uint64_t soaScans = 0;
    std::uint64_t readsExamined = 0;
    std::uint64_t dominanceSkipped = 0;
    std::uint64_t fallbackScans = 0;
};

/** Fill @p s's profiler fields from a tcmsim-profile-v1 document;
 *  throws std::runtime_error on a malformed one. */
void fromProfileJson(const std::string &text, LayerSample &s);

/**
 * Run one job as the exact call sequence runWorkload performs —
 * Simulator construction, step(warmup), beginMeasurement + step(measure)
 * (window by window when sampled), AloneIpcCache::aloneIpc and
 * metrics::computeMetrics — with a span around each call, all sharing
 * job id @p job, and the layer counts read from the Simulator's getters.
 * @p profile attaches a prof::Profiler for the split inside step().
 */
JobOutput tracedJob(const tcm::sim::SystemConfig &config,
                    const std::vector<tcm::workload::ThreadProfile> &mix,
                    tcm::sched::SchedulerSpec spec,
                    const tcm::sim::ExperimentScale &scale,
                    tcm::sim::AloneIpcCache &cache, std::uint64_t seed,
                    SpanLog &log, std::uint64_t job, bool profile,
                    LayerSample &sample);

/** The per-layer metrics shared by every workload, from per-job
 *  @p stepped samples (span/getter fields) and @p profiled samples. */
void addLayerMetrics(Result &result, const std::vector<LayerSample> &stepped,
                     const std::vector<LayerSample> &profiled);

} // namespace perfbench
