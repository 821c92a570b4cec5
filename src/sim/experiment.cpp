#include "sim/experiment.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "common/env.hpp"
#include "common/thread_pool.hpp"
#include "sim/simulator.hpp"

namespace tcm::sim {

ExperimentScale
ExperimentScale::fromEnv()
{
    ExperimentScale s;
    s.measure = static_cast<Cycle>(envInt("TCMSIM_CYCLES", 300'000));
    s.warmup = static_cast<Cycle>(envInt("TCMSIM_WARMUP", 50'000));
    s.workloadsPerCategory =
        static_cast<int>(envInt("TCMSIM_WORKLOADS", 8));
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

} // namespace

prof::ProfileConfig
requestedProfile(const SystemConfig &config)
{
    if (config.profile.enabled)
        return config.profile;
    prof::ProfileConfig env = prof::ProfileConfig::fromEnv();
    env.filePrefix = config.profile.filePrefix;
    return env;
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
    const prof::ProfileConfig pcfg = requestedProfile(config);
    std::unique_ptr<prof::Profiler> profiler;
    if (pcfg.enabled) {
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
    if (sink) {
        if (!tcfg.dir.empty()) {
            // Deterministic name: parallel sweeps write the same file
            // set at any thread count.
            prof::ScopedPhase serialize(profiler ? &profiler->main()
                                                 : nullptr,
                                        prof::Phase::Serialize);
            std::string base = tcfg.dir + "/" + tcfg.filePrefix +
                               spec.name() + "_seed" +
                               std::to_string(seed);
            sink->writeJsonl(base + ".jsonl");
            sink->writeChromeTrace(base + ".trace.json");
        }
        result.telemetry = std::move(sink);
    }
    if (profiler) {
        auto report =
            std::make_shared<prof::ProfileReport>(profiler->report());
        if (!pcfg.dir.empty()) {
            // Same deterministic naming scheme as the telemetry files.
            // The directory may come straight from TCMSIM_PROFILE, so
            // create it here rather than demanding every caller does.
            std::error_code ec;
            std::filesystem::create_directories(pcfg.dir, ec);
            std::string path = pcfg.dir + "/" + pcfg.filePrefix +
                               spec.name() + "_seed" +
                               std::to_string(seed) + ".profile.json";
            std::FILE *f = std::fopen(path.c_str(), "w");
            if (!f)
                throw std::runtime_error("profile: cannot write " + path);
            const std::string json = report->toJson();
            std::fwrite(json.data(), 1, json.size(), f);
            std::fclose(f);
        }
        result.profile = std::move(report);
    }
    return result;
}

std::vector<std::vector<RunResult>>
runMatrix(const SystemConfig &config,
          const std::vector<std::vector<workload::ThreadProfile>> &workloads,
          const std::vector<sched::SchedulerSpec> &specs,
          const ExperimentScale &scale, AloneIpcCache &cache,
          std::uint64_t baseSeed, int jobs)
{
    ThreadPool pool(jobs);

    // Fill the alone-IPC denominators first so the sweep tasks below hit
    // a read-only cache (and the alone runs themselves parallelize
    // instead of serializing behind per-key latches mid-sweep).
    cache.prewarm(workloads, pool);

    std::vector<std::vector<RunResult>> results(specs.size());
    for (auto &row : results)
        row.resize(workloads.size());

    // One flat task per (scheduler, workload) cell; each writes only its
    // own slot, so no result synchronization is needed.
    const std::size_t cells = specs.size() * workloads.size();
    pool.parallelFor(cells, [&](std::size_t i) {
        const std::size_t s = i / workloads.size();
        const std::size_t w = i % workloads.size();
        results[s][w] = runWorkload(config, workloads[w], specs[s], scale,
                                    cache, baseSeed + w);
    });
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

AggregateResult
evaluateSet(const SystemConfig &config,
            const std::vector<std::vector<workload::ThreadProfile>> &workloads,
            const sched::SchedulerSpec &spec, const ExperimentScale &scale,
            AloneIpcCache &cache, std::uint64_t baseSeed, int jobs)
{
    return evaluateMatrix(config, workloads, {spec}, scale, cache, baseSeed,
                          jobs)
        .front();
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
