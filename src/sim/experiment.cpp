#include "sim/experiment.hpp"

#include <cmath>
#include <filesystem>
#include <limits>
#include <map>

#include "common/env.hpp"
#include "common/file_io.hpp"
#include "sim/simulator.hpp"

namespace tcm::sim {

ExperimentScale
ExperimentScale::fromEnv()
{
    ExperimentScale s;
    s.measure = static_cast<Cycle>(envInt("TCMSIM_CYCLES", 300'000, 1));
    s.warmup = static_cast<Cycle>(envInt("TCMSIM_WARMUP", 50'000, 0));
    s.workloadsPerCategory = static_cast<int>(envInt(
        "TCMSIM_WORKLOADS", 8, 1, std::numeric_limits<int>::max()));
    return s;
}

namespace {

/**
 * The measurement phase of a sampled run: K windows of W cycles,
 * recording per-thread IPC per window. Window-chunked stepping is
 * bit-identical to one contiguous step of K*W cycles (the cycle-skip
 * horizon clamp contract; asserted by tests/test_sampling), so the
 * windows only add observation points, never perturb the simulation.
 * Returns the per-thread relative standard error of the window-mean
 * IPC (empty for K < 2).
 */
std::vector<double>
stepSampledWindows(Simulator &sim, const SamplingConfig &samp,
                   std::size_t numThreads)
{
    std::vector<std::uint64_t> prev(numThreads);
    for (std::size_t t = 0; t < numThreads; ++t)
        prev[t] = sim.counters()[t].instructions;

    std::vector<RunningStat> windowIpc(numThreads);
    for (int k = 0; k < samp.windows; ++k) {
        sim.step(samp.window);
        for (std::size_t t = 0; t < numThreads; ++t) {
            std::uint64_t insts = sim.counters()[t].instructions;
            windowIpc[t].add(static_cast<double>(insts - prev[t]) /
                             static_cast<double>(samp.window));
            prev[t] = insts;
        }
    }

    std::vector<double> rse;
    if (samp.windows >= 2) {
        rse.reserve(numThreads);
        for (std::size_t t = 0; t < numThreads; ++t) {
            double mean = windowIpc[t].mean();
            double sem = std::sqrt(windowIpc[t].variance() /
                                   static_cast<double>(samp.windows));
            rse.push_back(mean > 0.0 ? sem / mean : 0.0);
        }
    }
    return rse;
}

/** Write the per-run files of named cell @p cell, which ran to @p r:
 *  the one place a per-run file name is built. */
void
writeRunFiles(const Cell &cell, const RunResult &r)
{
    auto path = [&](const std::string &dir, const char *suffix) {
        return dir + "/" + cell.name + suffix;
    };
    const std::string &telemetryDir = cell.config.telemetry.dir;
    if (r.telemetry && !telemetryDir.empty()) {
        r.telemetry->writeJsonl(path(telemetryDir, ".jsonl"));
        r.telemetry->writeChromeTrace(path(telemetryDir, ".trace.json"));
    }
    const std::string &profileDir = cell.config.profile.dir;
    if (r.profile && !profileDir.empty()) {
        // The directory may come straight from TCMSIM_PROFILE, so create
        // it here rather than demanding every caller does.
        std::error_code ec;
        std::filesystem::create_directories(profileDir, ec);
        writeFile(path(profileDir, ".profile.json"), "profile",
                  r.profile->toJson());
    }
}

} // namespace

prof::ProfileConfig
requestedProfile(const SystemConfig &config)
{
    return config.profile.enabled ? config.profile
                                  : prof::ProfileConfig::fromEnv();
}

RunResult
runWorkload(const SystemConfig &config,
            const std::vector<workload::ThreadProfile> &mix,
            sched::SchedulerSpec spec, const ExperimentScale &scale,
            AloneIpcCache &cache, std::uint64_t seed)
{
    // Time constants always scale to the FULL run length: a sampled run
    // must be a slice of the full run's dynamics, not a compressed one.
    spec.scaleToRun(scale.measure);

    // Telemetry runs always probe, so thread samples carry measured
    // RBL/BLP/outstanding gauges.
    const telemetry::TelemetryConfig &tcfg = config.telemetry;
    Simulator sim(config, mix, spec, seed, /*enableProbe=*/tcfg.enabled);

    Observers observers;
    std::shared_ptr<telemetry::TelemetrySink> sink;
    if (tcfg.enabled) {
        sink = std::make_shared<telemetry::TelemetrySink>(tcfg);
        telemetry::TelemetrySink::Meta meta;
        meta.seed = seed;
        sink->setMeta(std::move(meta)); // attach fills the rest
        observers.telemetry = sink.get();
    }
    std::unique_ptr<prof::Profiler> profiler;
    if (config.profile.enabled) {
        profiler = std::make_unique<prof::Profiler>();
        observers.profiler = profiler.get();
    }
    sim.attach(observers);

    RunResult result;
    if (scale.sampling.enabled) {
        sim.step(scale.sampling.warmup);
        sim.beginMeasurement();
        result.ipcRse = stepSampledWindows(sim, scale.sampling, mix.size());
    } else {
        sim.run(scale.warmup, scale.measure);
    }

    result.ipcShared.reserve(mix.size());
    result.ipcAlone.reserve(mix.size());
    for (ThreadId t = 0; t < static_cast<ThreadId>(mix.size()); ++t) {
        result.ipcShared.push_back(sim.measuredIpc(t));
        result.ipcAlone.push_back(cache.aloneIpc(mix[t]));
    }
    result.metrics =
        metrics::computeMetrics(result.ipcAlone, result.ipcShared);
    if (dram::ProtocolChecker *checker = sim.protocolChecker()) {
        checker->finalize(sim.now());
        result.protocolViolations = checker->violationCount();
        result.protocolReport = checker->report();
    }
    result.telemetry = std::move(sink);
    if (profiler)
        result.profile =
            std::make_shared<prof::ProfileReport>(profiler->report());
    return result;
}

std::vector<RunResult>
runCells(const std::vector<Cell> &cells, const ExperimentScale &scale,
         ThreadPool &pool)
{
    // Fill the alone-IPC denominators first, one prewarm per distinct
    // cache, so the runs below hit read-only caches (and the alone runs
    // parallelize instead of serializing behind per-key latches).
    std::map<AloneIpcCache *,
             std::vector<std::vector<workload::ThreadProfile>>>
        mixesOf;
    for (const Cell &cell : cells)
        mixesOf[cell.cache].push_back(cell.mix);
    for (auto &[cache, mixes] : mixesOf)
        cache->prewarm(mixes, pool);

    // Each task writes only its own slot, so no result synchronization
    // is needed.
    std::vector<RunResult> results(cells.size());
    pool.parallelFor(cells.size(), [&](std::size_t i) {
        const Cell &cell = cells[i];
        results[i] = runWorkload(cell.config, cell.mix, cell.spec, scale,
                                 *cell.cache, cell.seed);
        if (!cell.name.empty())
            writeRunFiles(cell, results[i]);
    });
    return results;
}

std::vector<std::vector<RunResult>>
runMatrix(const SystemConfig &config,
          const std::vector<std::vector<workload::ThreadProfile>> &workloads,
          const std::vector<sched::SchedulerSpec> &specs,
          const ExperimentScale &scale, AloneIpcCache &cache,
          std::uint64_t baseSeed, int jobs)
{
    ThreadPool pool(jobs);
    std::vector<Cell> cells;
    cells.reserve(specs.size() * workloads.size());
    for (const sched::SchedulerSpec &spec : specs)
        for (std::size_t w = 0; w < workloads.size(); ++w)
            cells.push_back({config, &cache, workloads[w], spec,
                             baseSeed + w, ""});
    std::vector<RunResult> runs = runCells(cells, scale, pool);

    std::vector<std::vector<RunResult>> results(specs.size());
    for (std::size_t i = 0; i < runs.size(); ++i)
        results[i / workloads.size()].push_back(std::move(runs[i]));
    return results;
}

std::vector<AggregateResult>
evaluateMatrix(const SystemConfig &config,
               const std::vector<std::vector<workload::ThreadProfile>> &workloads,
               const std::vector<sched::SchedulerSpec> &specs,
               const ExperimentScale &scale, AloneIpcCache &cache,
               std::uint64_t baseSeed, int jobs)
{
    auto runs = runMatrix(config, workloads, specs, scale, cache, baseSeed,
                          jobs);

    std::vector<AggregateResult> aggregates(specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s) {
        aggregates[s].scheduler = specs[s].name();
        // Fold in workload order: Welford accumulation is order-
        // sensitive, and this order is what the serial driver used.
        for (const RunResult &r : runs[s]) {
            aggregates[s].weightedSpeedup.add(r.metrics.weightedSpeedup);
            aggregates[s].maxSlowdown.add(r.metrics.maxSlowdown);
            aggregates[s].harmonicSpeedup.add(r.metrics.harmonicSpeedup);
            if (r.profile)
                aggregates[s].profile.merge(*r.profile);
        }
    }
    return aggregates;
}

std::vector<sched::SchedulerSpec>
paperSchedulers()
{
    return {
        sched::SchedulerSpec::frfcfs(),
        sched::SchedulerSpec::stfmSpec(),
        sched::SchedulerSpec::parbsSpec(),
        sched::SchedulerSpec::atlasSpec(),
        sched::SchedulerSpec::tcmSpec(),
    };
}

std::vector<sched::SchedulerSpec>
priorSchedulers()
{
    return {
        sched::SchedulerSpec::frfcfs(),
        sched::SchedulerSpec::stfmSpec(),
        sched::SchedulerSpec::parbsSpec(),
        sched::SchedulerSpec::atlasSpec(),
    };
}

} // namespace tcm::sim
