/**
 * @file
 * Experiment drivers: run workloads under schedulers, produce metrics.
 *
 * Every (workload, scheduler) simulation is independent and
 * independently seeded, so every grid is a list of cells that one
 * executor, runCells, fans out across a ThreadPool (TCMSIM_JOBS knob;
 * jobs=1 runs inline). Results are collected by index and reduced in
 * workload order, so aggregates are bit-identical at any thread count.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/running_stat.hpp"
#include "common/thread_pool.hpp"
#include "metrics/metrics.hpp"
#include "prof/profiler.hpp"
#include "sched/factory.hpp"
#include "sim/alone_cache.hpp"
#include "sim/sampling.hpp"
#include "sim/system_config.hpp"
#include "telemetry/sink.hpp"
#include "workload/profile.hpp"

namespace tcm::sim {

/** Run-length knobs, shared by all benches; overridable via environment:
 *  TCMSIM_CYCLES (measured cycles), TCMSIM_WARMUP, TCMSIM_WORKLOADS
 *  (workloads per intensity category). */
struct ExperimentScale
{
    Cycle warmup = 50'000;
    Cycle measure = 300'000;
    int workloadsPerCategory = 8;

    /**
     * Interval sampling (sim/sampling.hpp). When enabled, runs execute
     * sampling.warmup + K sampled windows instead of warmup + measure;
     * `warmup`/`measure` keep describing the FULL run the sampled one
     * estimates — scheduler time constants still scale to `measure`,
     * and results documents still record the full scale.
     */
    SamplingConfig sampling;

    /** Cycles actually simulated before measurement begins. */
    Cycle effectiveWarmup() const
    {
        return sampling.enabled ? sampling.warmup : warmup;
    }

    /** Cycles actually measured (K*W when sampling, else measure). */
    Cycle effectiveMeasure() const
    {
        return sampling.enabled ? sampling.totalMeasure() : measure;
    }

    /**
     * Defaults above, overridden from the environment (TCMSIM_CYCLES
     * >= 1, TCMSIM_WARMUP >= 0, TCMSIM_WORKLOADS in [1, INT_MAX]; a
     * malformed or out-of-range value exits 2, see envInt).
     */
    static ExperimentScale fromEnv();
};

/** Result of one (workload, scheduler) simulation. */
struct RunResult
{
    std::vector<double> ipcShared;
    std::vector<double> ipcAlone;
    metrics::WorkloadMetrics metrics;

    /**
     * DDR2 protocol-audit verdict, populated only when the run's
     * SystemConfig had protocolCheck set: total violation count and the
     * checker's human-readable report (empty when clean).
     */
    std::uint64_t protocolViolations = 0;
    std::string protocolReport;

    /**
     * The run's telemetry sink, populated only when the run's
     * SystemConfig had telemetry.enabled set. Shared so RunResult stays
     * cheaply copyable; each run owns a distinct sink (the parallel
     * runner never shares one across tasks).
     */
    std::shared_ptr<telemetry::TelemetrySink> telemetry;

    /**
     * The run's self-profile, populated when SystemConfig::profile
     * enabled profiling. Excluded from every results comparison —
     * simulation outputs are bit-identical with or without it
     * (tests/test_prof).
     */
    std::shared_ptr<prof::ProfileReport> profile;

    /**
     * Per-thread relative standard error of the mean IPC across the K
     * measurement windows of a sampled run (empty when the run was not
     * sampled, or K < 2). The run's self-assessed representativeness:
     * a thread whose window IPCs vary wildly is poorly estimated by
     * this sample length. Diagnostic only — never feeds a metric.
     */
    std::vector<double> ipcRse;
};

/**
 * The self-profile a run of @p config asks for: SystemConfig::profile
 * when enabled, else the TCMSIM_PROFILE environment knob. Resolved only
 * where a profile is read: sweepd::runJobs (per-job files, sweep's
 * report) and the paper drivers (the results document's run block).
 */
prof::ProfileConfig requestedProfile(const SystemConfig &config);

/**
 * Simulate @p mix under @p spec (time-scaled to the run length) and
 * compute the paper's metrics against memoized alone IPCs, profiling
 * the run when SystemConfig::profile is enabled (the environment knob
 * is not consulted here). Writes no file: the run's telemetry sink and
 * profile come back in the result.
 */
RunResult runWorkload(const SystemConfig &config,
                      const std::vector<workload::ThreadProfile> &mix,
                      sched::SchedulerSpec spec, const ExperimentScale &scale,
                      AloneIpcCache &cache, std::uint64_t seed);

/** One run of a grid: @p mix under @p spec on @p config, seeded @p seed,
 *  against the alone IPCs of @p cache (built for @p config). */
struct Cell
{
    SystemConfig config;
    AloneIpcCache *cache = nullptr;
    std::vector<workload::ThreadProfile> mix;
    sched::SchedulerSpec spec;
    std::uint64_t seed = 0;
    /** Stem of the run's files, unique within its grid: `<name>.jsonl`
     *  and `.trace.json` in telemetry.dir, `<name>.profile.json` in
     *  profile.dir. Empty writes no file. */
    std::string name;
};

/**
 * The one grid executor. Prewarms each distinct alone cache over its
 * cells' mixes, runs every cell through runWorkload on @p pool, writes
 * the files of each named cell, and returns the results in cell order.
 * Throws what a run or a file write throws (the lowest-index failure).
 */
std::vector<RunResult> runCells(const std::vector<Cell> &cells,
                                const ExperimentScale &scale,
                                ThreadPool &pool);

/** Aggregate metrics of one scheduler over a set of workloads. */
struct AggregateResult
{
    std::string scheduler;
    RunningStat weightedSpeedup;
    RunningStat maxSlowdown;
    RunningStat harmonicSpeedup;

    /** Merged self-profile across the scheduler's runs (enabled only
     *  when the runs were profiled); never feeds any metric above. */
    prof::ProfileReport profile;
};

/**
 * Run every (scheduler, workload) pair of the grid as one runCells call
 * and return the per-run results as result[scheduler][workload].
 * Workload @p w of every scheduler uses seed baseSeed + w, so the grid
 * equals per-scheduler serial runs. The cells have no name: no run
 * writes a per-run file, and profiles come back in the results.
 *
 * @param jobs pool size; <= 0 means ThreadPool::defaultJobs()
 *        (TCMSIM_JOBS, else all hardware threads); 1 runs serially
 *        on the calling thread.
 */
std::vector<std::vector<RunResult>>
runMatrix(const SystemConfig &config,
          const std::vector<std::vector<workload::ThreadProfile>> &workloads,
          const std::vector<sched::SchedulerSpec> &specs,
          const ExperimentScale &scale, AloneIpcCache &cache,
          std::uint64_t baseSeed, int jobs = 0);

/**
 * runMatrix reduced to one AggregateResult per scheduler (in @p specs
 * order). Per-workload metrics are folded into the RunningStats in
 * workload order regardless of task completion order, so the aggregates
 * are bit-identical across thread counts.
 */
std::vector<AggregateResult>
evaluateMatrix(const SystemConfig &config,
               const std::vector<std::vector<workload::ThreadProfile>> &workloads,
               const std::vector<sched::SchedulerSpec> &specs,
               const ExperimentScale &scale, AloneIpcCache &cache,
               std::uint64_t baseSeed, int jobs = 0);

/** The five schedulers of the paper's headline comparison (Figure 4). */
std::vector<sched::SchedulerSpec> paperSchedulers();

/** The four prior schedulers of the motivation plot (Figure 1). */
std::vector<sched::SchedulerSpec> priorSchedulers();

} // namespace tcm::sim
