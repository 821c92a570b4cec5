#include "sim/paper_experiments.hpp"

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/random.hpp"
#include "sched/tcm/hw_cost.hpp"
#include "sched/tcm/shuffle.hpp"
#include "sim/claims.hpp"
#include "sim/sampling.hpp"
#include "sim/simulator.hpp"
#include "workload/benchmark_table.hpp"
#include "workload/mixes.hpp"

namespace tcm::sim::paper {

namespace {

using Workloads = std::vector<std::vector<workload::ThreadProfile>>;
using Clock = std::chrono::steady_clock;

/** Stamp run provenance: elapsed wall time, host and build identity,
 *  and (when the runs were profiled) the merged self-profile metrics.
 *  All of it lives in the "run" block, which the claims baseline diff
 *  ignores. */
void
stamp(results::ResultsDoc &doc, Clock::time_point t0,
      const SystemConfig &config,
      const prof::ProfileReport *profile = nullptr)
{
    doc.wallSeconds = std::chrono::duration<double>(Clock::now() - t0).count();
    doc.hostThreads =
        static_cast<int>(std::thread::hardware_concurrency());
#ifdef TCMSIM_BUILD_TYPE
    doc.buildType = TCMSIM_BUILD_TYPE;
#endif
    doc.cycleSkip = config.cycleSkip ? 1 : 0;
    if (profile != nullptr && profile->enabled)
        doc.profileMetrics = profile->provenance();
}

/** Equal thirds at 50/75/100% intensity, seeded seedBase + 50/75/100:
 *  fig1's population (1000) and fig4's (2000), which the zoo and the
 *  sampling probe share. */
Workloads
mixedWorkloads(const SystemConfig &config, const ExperimentScale &scale,
               int seedBase)
{
    Workloads workloads;
    for (double intensity : {0.5, 0.75, 1.0}) {
        auto set = workload::workloadSet(
            scale.workloadsPerCategory, config.numCores, intensity,
            seedBase + static_cast<int>(intensity * 100));
        workloads.insert(workloads.end(), set.begin(), set.end());
    }
    return workloads;
}

/** @p points with each configuration's self-profile request resolved
 *  (the TCMSIM_PROFILE fallback): the paper drivers fold their runs'
 *  profiles into the document's run block. */
std::vector<GridPoint>
profiled(std::vector<GridPoint> points)
{
    for (GridPoint &p : points)
        p.config.profile = requestedProfile(p.config);
    return points;
}

/** @{ Merged self-profile of a grid's aggregates or runs (disabled when
 *  nothing was profiled). */
prof::ProfileReport
mergedProfile(const std::vector<AggregateResult> &aggs)
{
    prof::ProfileReport merged;
    for (const AggregateResult &agg : aggs)
        merged.merge(agg.profile);
    return merged;
}

prof::ProfileReport
mergedProfile(const std::vector<RunResult> &runs)
{
    prof::ProfileReport merged;
    for (const RunResult &r : runs)
        if (r.profile)
            merged.merge(*r.profile);
    return merged;
}
/** @} */

/** @p points as document @p bench: row (series, point) of each with the
 *  mean ws and ms over its workloads, and hs when @p withHs. */
results::ResultsDoc
pointGrid(const char *bench, const SystemConfig &config,
          const ExperimentScale &scale, int jobs,
          const std::vector<GridPoint> &points, bool withHs)
{
    const auto t0 = Clock::now();
    const std::vector<AggregateResult> aggs =
        evaluateGrid(profiled(points), scale, jobs);
    results::ResultsDoc doc(bench, scale);
    for (std::size_t i = 0; i < points.size(); ++i) {
        results::Row &row = doc.row(points[i].series, points[i].point);
        row.set("ws", aggs[i].weightedSpeedup.mean());
        row.set("ms", aggs[i].maxSlowdown.mean());
        if (withHs)
            row.set("hs", aggs[i].harmonicSpeedup.mean());
    }
    const prof::ProfileReport profile = mergedProfile(aggs);
    stamp(doc, t0, config, &profile);
    return doc;
}

/** One point per spec of @p specs on @p workloads, named by the spec,
 *  with base seed 1. */
std::vector<GridPoint>
schedulerPoints(const SystemConfig &config, const Workloads &workloads,
                const std::vector<sched::SchedulerSpec> &specs)
{
    std::vector<GridPoint> points;
    for (const sched::SchedulerSpec &spec : specs)
        points.push_back({spec.name(), "", config, spec, 1, workloads});
    return points;
}

// -- Figures --------------------------------------------------------------

results::ResultsDoc
fig1(const SystemConfig &config, const ExperimentScale &scale, int jobs)
{
    return pointGrid("fig1", config, scale, jobs,
                     schedulerPoints(config,
                                     mixedWorkloads(config, scale, 1000),
                                     priorSchedulers()),
                     /*withHs=*/false);
}

results::ResultsDoc
fig2(const SystemConfig &base, const ExperimentScale &scale, int jobs)
{
    const auto t0 = Clock::now();
    SystemConfig config = base;
    config.numCores = 2;
    const std::vector<workload::ThreadProfile> mix = {
        workload::randomAccessThread(), workload::streamingThread()};

    // Table 1: the two threads' measured behaviour, each run alone.
    results::ResultsDoc doc("fig2", scale);
    for (const workload::ThreadProfile &profile : mix) {
        Simulator sim(config, {profile}, sched::SchedulerSpec::frfcfs(), 11,
                      /*enableProbe=*/true);
        sim.run(scale.warmup, scale.measure);
        const auto b = sim.behavior(0);
        results::Row &row = doc.row(profile.name);
        row.set("mpki", b.mpki);
        row.set("blp", b.blp);
        row.set("rbl", b.rbl);
    }

    // Figure 2: slowdowns under the two strict prioritizations.
    const std::vector<GridPoint> points = {
        {"slowdown", "ra_first", config,
         sched::SchedulerSpec::fixedRank({1, 0}), 11, {mix}},
        {"slowdown", "st_first", config,
         sched::SchedulerSpec::fixedRank({0, 1}), 11, {mix}},
    };
    const std::vector<RunResult> runs =
        runGrid(profiled(points), scale, jobs);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        doc.setAt("slowdown", points[i].point, "random_access",
                  runs[i].metrics.slowdowns[0]);
        doc.setAt("slowdown", points[i].point, "streaming",
                  runs[i].metrics.slowdowns[1]);
    }
    const prof::ProfileReport profile = mergedProfile(runs);
    stamp(doc, t0, config, &profile);
    return doc;
}

/** Figure 3 for one shuffle: rows <series>@P1 (top priority) .. P4 hold
 *  the thread at that position in ShuffleIntervals s1..s8, and row
 *  <series> each thread's share of intervals at the top. */
void
shuffleSequence(results::ResultsDoc &doc, const char *series,
                sched::ShuffleMode mode, bool nicestAtTop)
{
    constexpr int kThreads = 4;
    constexpr int kSteps = 8; // one full insertion period (2N)

    // Niceness 0..3 (thread 3 nicest); the nicest-at-top variant runs the
    // shuffle on negated niceness and reads ranks from the front, exactly
    // as the Tcm policy does.
    std::vector<double> niceness = {0, 1, 2, 3};
    if (nicestAtTop)
        for (double &v : niceness)
            v = -v;
    std::vector<int> weights(kThreads, 1);
    Pcg32 rng(1);
    sched::ShuffleState state({0, 1, 2, 3}, niceness, weights, mode, &rng);

    std::vector<std::vector<ThreadId>> history = {state.order()};
    for (int s = 1; s < kSteps; ++s) {
        state.step();
        history.push_back(state.order());
    }

    std::vector<int> timeAtTop(kThreads, 0);
    for (int level = 0; level < kThreads; ++level) {
        results::Row &row =
            doc.row(series, "P" + std::to_string(level + 1));
        for (int s = 0; s < kSteps; ++s) {
            const auto &order = history[s];
            const ThreadId t =
                nicestAtTop ? order[level] : order[kThreads - 1 - level];
            row.set("s" + std::to_string(s + 1), t);
            if (level == 0)
                ++timeAtTop[t];
        }
    }
    for (ThreadId t = 0; t < kThreads; ++t)
        doc.set(series, "t" + std::to_string(t) + "_top_frac",
                static_cast<double>(timeAtTop[t]) / kSteps);
}

results::ResultsDoc
fig3(const SystemConfig &, const ExperimentScale &, int)
{
    results::ResultsDoc doc;
    doc.bench = "fig3"; // a visualization: no experiment scale applies
    shuffleSequence(doc, "round-robin", sched::ShuffleMode::RoundRobin,
                    false);
    shuffleSequence(doc, "insertion", sched::ShuffleMode::Insertion, true);
    shuffleSequence(doc, "insertion(literal)", sched::ShuffleMode::Insertion,
                    false);
    return doc;
}

results::ResultsDoc
fig5(const SystemConfig &config, const ExperimentScale &scale, int jobs)
{
    // Points A-D are the Table 5 workloads, seeded 30+'A' .. 30+'D'; avg
    // is the mean over random 50%-intensity workloads.
    const Workloads avgSet = workload::workloadSet(
        scale.workloadsPerCategory, config.numCores, 0.5, 3500);
    std::vector<GridPoint> points;
    for (const sched::SchedulerSpec &spec : paperSchedulers()) {
        for (char w : {'A', 'B', 'C', 'D'})
            points.push_back({spec.name(), std::string(1, w), config, spec,
                              static_cast<std::uint64_t>(30 + w),
                              {workload::tableFiveWorkload(w)}});
        points.push_back({spec.name(), "avg", config, spec, 77, avgSet});
    }
    return pointGrid("fig5", config, scale, jobs, points,
                     /*withHs=*/false);
}

results::ResultsDoc
fig6(const SystemConfig &config, const ExperimentScale &scale, int jobs)
{
    const Workloads workloads = workload::workloadSet(
        scale.workloadsPerCategory, config.numCores, 0.5, 4000);
    std::vector<GridPoint> points;
    auto add = [&](const sched::SchedulerSpec &spec, std::string label) {
        points.push_back(
            {spec.name(), std::move(label), config, spec, 9, workloads});
    };
    for (int num = 2; num <= 6; ++num) {
        sched::SchedulerSpec spec = sched::SchedulerSpec::tcmSpec();
        spec.tcm.clusterThreshNumerator = num;
        add(spec, "ClusterThresh=" + std::to_string(num) + "/24");
    }
    // ATLAS's QuantumLength as fractions of the run.
    for (double frac : {0.01, 0.05, 0.1, 0.5}) {
        sched::SchedulerSpec spec = sched::SchedulerSpec::atlasSpec();
        spec.atlas.quantum =
            std::max<Cycle>(10'000, static_cast<Cycle>(frac * scale.measure));
        add(spec, "Quantum=" + std::to_string(spec.atlas.quantum));
    }
    for (int cap : {1, 2, 5, 10}) {
        sched::SchedulerSpec spec = sched::SchedulerSpec::parbsSpec();
        spec.parbs.batchCap = cap;
        add(spec, "BatchCap=" + std::to_string(cap));
    }
    for (double thresh : {1.0, 1.1, 2.0, 5.0}) {
        sched::SchedulerSpec spec = sched::SchedulerSpec::stfmSpec();
        spec.stfm.fairnessThreshold = thresh;
        char label[32];
        std::snprintf(label, sizeof(label), "Thresh=%.1f", thresh);
        add(spec, label);
    }
    add(sched::SchedulerSpec::frfcfs(), "(no knob)");
    return pointGrid("fig6", config, scale, jobs, points, /*withHs=*/true);
}

results::ResultsDoc
fig7(const SystemConfig &config, const ExperimentScale &scale, int jobs)
{
    std::vector<GridPoint> points;
    for (const sched::SchedulerSpec &spec : paperSchedulers())
        for (int pct : {25, 50, 75, 100})
            points.push_back({spec.name(), "i" + std::to_string(pct), config,
                              spec, 3,
                              workload::workloadSet(scale.workloadsPerCategory,
                                                    config.numCores,
                                                    pct / 100.0, 5000 + pct)});
    return pointGrid("fig7", config, scale, jobs, points, /*withHs=*/false);
}

results::ResultsDoc
fig8(const SystemConfig &base, const ExperimentScale &scale, int jobs)
{
    const auto t0 = Clock::now();
    SystemConfig config = base;
    config.numCores = 6;
    // The worst weights for throughput: the heaviest thread gets the
    // largest weight.
    const std::pair<const char *, int> entries[] = {
        {"gcc", 1}, {"wrf", 2},         {"GemsFDTD", 4},
        {"lbm", 8}, {"libquantum", 16}, {"mcf", 32}};
    std::vector<workload::ThreadProfile> mix;
    for (const auto &[name, weight] : entries) {
        workload::ThreadProfile p = workload::benchmarkProfile(name);
        p.weight = weight;
        mix.push_back(p);
    }

    const std::vector<RunResult> runs = runGrid(
        profiled({{"ATLAS", "", config, sched::SchedulerSpec::atlasSpec(), 6,
                   {mix}},
                  {"TCM", "", config, sched::SchedulerSpec::tcmSpec(), 6,
                   {mix}}}),
        scale, jobs);
    const metrics::WorkloadMetrics &atlas = runs[0].metrics;
    const metrics::WorkloadMetrics &tcm = runs[1].metrics;

    results::ResultsDoc doc("fig8", scale);
    for (std::size_t t = 0; t < mix.size(); ++t) {
        doc.set(entries[t].first, "weight", entries[t].second);
        doc.set(entries[t].first, "speedup_atlas", atlas.speedups[t]);
        doc.set(entries[t].first, "speedup_tcm", tcm.speedups[t]);
    }
    doc.set("system", "atlas_ws", atlas.weightedSpeedup);
    doc.set("system", "atlas_ms", atlas.maxSlowdown);
    doc.set("system", "tcm_ws", tcm.weightedSpeedup);
    doc.set("system", "tcm_ms", tcm.maxSlowdown);
    const prof::ProfileReport profile = mergedProfile(runs);
    stamp(doc, t0, config, &profile);
    return doc;
}

results::ResultsDoc
table2(const SystemConfig &, const ExperimentScale &, int)
{
    // Table 3's baseline: 24 threads, 4 banks.
    const sched::HwCost cost = sched::monitoringCost(sched::HwCostConfig{});
    results::ResultsDoc doc;
    doc.bench = "table2"; // analytic formulas: no experiment scale
    results::Row &row = doc.row("bits");
    row.set("mpki_counters", static_cast<double>(cost.mpkiCounters));
    row.set("load_counters", static_cast<double>(cost.loadCounters));
    row.set("blp_counters", static_cast<double>(cost.blpCounters));
    row.set("blp_average", static_cast<double>(cost.blpAverage));
    row.set("shadow_row_indices",
            static_cast<double>(cost.shadowRowIndices));
    row.set("shadow_hit_counters",
            static_cast<double>(cost.shadowHitCounters));
    row.set("total", static_cast<double>(cost.total()));
    row.set("total_random_shuffle_only",
            static_cast<double>(cost.totalRandomShuffleOnly()));
    return doc;
}

results::ResultsDoc
table7(const SystemConfig &config, const ExperimentScale &scale, int jobs)
{
    const Workloads workloads = workload::workloadSet(
        scale.workloadsPerCategory, config.numCores, 0.5, 7000);
    std::vector<GridPoint> points;
    for (double thresh : {0.05, 0.07, 0.10}) {
        sched::SchedulerSpec spec = sched::SchedulerSpec::tcmSpec();
        spec.tcm.shuffleAlgoThresh = thresh;
        char label[40];
        std::snprintf(label, sizeof(label), "%.2f", thresh);
        points.push_back(
            {"ShuffleAlgoThresh", label, config, spec, 21, workloads});
    }
    for (Cycle interval : {500, 600, 700, 800}) {
        sched::SchedulerSpec spec = sched::SchedulerSpec::tcmSpec();
        spec.tcm.shuffleInterval = interval;
        points.push_back({"ShuffleInterval", std::to_string(interval),
                          config, spec, 21, workloads});
    }
    return pointGrid("table7", config, scale, jobs, points,
                     /*withHs=*/false);
}

/** One Table 8 system: its row (series, label) and configuration. */
struct SystemPoint
{
    const char *series;
    std::string label;
    SystemConfig config;
};

/** Table 8's systems on @p base: controllers 1..16 (24 cores), cores
 *  4..32 (4 controllers), and the LLC size emulated by scaling MPKI (a
 *  2x cache roughly halves the miss rate). */
std::vector<SystemPoint>
table8Systems(const SystemConfig &base)
{
    std::vector<SystemPoint> points;
    for (int channels : {1, 2, 4, 8, 16}) {
        SystemConfig config = base;
        config.numChannels = channels;
        points.push_back({"controllers",
                          std::to_string(channels) + " controller(s)",
                          config});
    }
    for (int cores : {4, 8, 16, 24, 32}) {
        SystemConfig config = base;
        config.numCores = cores;
        points.push_back({"cores", std::to_string(cores) + " cores", config});
    }
    const std::pair<const char *, double> llc[] = {
        {"512KB (baseline)", 1.0}, {"1MB", 0.6}, {"2MB", 0.36}};
    for (const auto &[label, mpkiScale] : llc) {
        SystemConfig config = base;
        config.mpkiScale = mpkiScale;
        points.push_back({"llc", label, config});
    }
    return points;
}

results::ResultsDoc
table8(const SystemConfig &base, const ExperimentScale &scale, int jobs)
{
    const auto t0 = Clock::now();
    // Two points per system: TCM, then ATLAS.
    std::vector<GridPoint> points;
    for (const SystemPoint &p : table8Systems(base)) {
        const Workloads workloads = workload::workloadSet(
            scale.workloadsPerCategory, p.config.numCores, 0.5, 8000);
        for (const sched::SchedulerSpec &spec :
             {sched::SchedulerSpec::tcmSpec(),
              sched::SchedulerSpec::atlasSpec()})
            points.push_back(
                {p.series, p.label, p.config, spec, 31, workloads});
    }
    const std::vector<AggregateResult> aggs =
        evaluateGrid(profiled(points), scale, jobs);

    results::ResultsDoc doc("table8", scale);
    for (std::size_t i = 0; i < points.size(); i += 2) {
        results::Row &row = doc.row(points[i].series, points[i].point);
        row.set("tcm_ws", aggs[i].weightedSpeedup.mean());
        row.set("tcm_ms", aggs[i].maxSlowdown.mean());
        row.set("atlas_ws", aggs[i + 1].weightedSpeedup.mean());
        row.set("atlas_ms", aggs[i + 1].maxSlowdown.mean());
    }
    const prof::ProfileReport profile = mergedProfile(aggs);
    stamp(doc, t0, base, &profile);
    return doc;
}

results::ResultsDoc
ablations(const SystemConfig &base, const ExperimentScale &scale, int jobs)
{
    const Workloads workloads = workload::workloadSet(
        scale.workloadsPerCategory, base.numCores, 0.5, 9900);
    std::vector<GridPoint> points;
    auto add = [&](const char *series, std::string label,
                   const SystemConfig &config,
                   const sched::SchedulerSpec &spec, std::uint64_t seed) {
        points.push_back(
            {series, std::move(label), config, spec, seed, workloads});
    };
    const sched::SchedulerSpec tcm = sched::SchedulerSpec::tcmSpec();
    add("row-hit-first", "FR-FCFS (row-hit first)", base,
        sched::SchedulerSpec::frfcfs(), 1);
    add("row-hit-first", "FCFS (arrival order only)", base,
        sched::SchedulerSpec::fcfs(), 1);
    add("refresh", "refresh on (tREFI/tRFC)", base, tcm, 2);
    SystemConfig config = base;
    config.timing.refreshEnabled = false;
    add("refresh", "refresh off", config, tcm, 2);
    // Write-drain high watermark (queue cap 64).
    for (int hi : {16, 48, 62}) {
        config = base;
        config.controller.writeDrain.highWatermark = hi;
        config.controller.writeDrain.lowWatermark = hi / 3;
        add("write-drain", "drain at " + std::to_string(hi), config, tcm, 3);
    }
    add("page-policy", "open page (baseline)", base, tcm, 8);
    config = base;
    config.controller.pagePolicy = mem::PagePolicy::Closed;
    add("page-policy", "smart closed page", config, tcm, 8);
    add("dram-generation", "DDR2-800 (Table 3)", base, tcm, 9);
    config = base;
    config.timing = dram::TimingParams::ddr3_1333();
    add("dram-generation", "DDR3-1333", config, tcm, 9);
    config = base;
    config.timing.banksPerChannel = 8;
    config.timing.ranksPerChannel = 1;
    add("rank-organization", "1 rank x 8 banks", config, tcm, 10);
    config.timing.ranksPerChannel = 2;
    add("rank-organization", "2 ranks x 4 banks", config, tcm, 10);
    add("fqm", "FQM (bandwidth fairness)", base,
        sched::SchedulerSpec::fqmSpec(), 5);
    add("fqm", "TCM", base, tcm, 5);
    // ATLAS's aging threshold: the starvation valve.
    for (Cycle aging : {Cycle{25'000}, Cycle{100'000}, kCycleNever}) {
        sched::SchedulerSpec spec = sched::SchedulerSpec::atlasSpec();
        spec.atlas.agingThreshold = aging;
        add("atlas-aging",
            aging == kCycleNever
                ? std::string("ATLAS aging=never")
                : "ATLAS aging=" + std::to_string(aging / 1000) + "K",
            base, spec, 4);
    }
    return pointGrid("ablations", base, scale, jobs, points,
                     /*withHs=*/false);
}

/** One timed run of @p mix under TCM; returns wall seconds and fills
 *  @p ipc with the per-thread IPCs. */
double
timedRun(SystemConfig config, bool cycleSkip,
         const std::vector<workload::ThreadProfile> &mix,
         const ExperimentScale &scale, std::vector<double> &ipc)
{
    config.cycleSkip = cycleSkip;
    sched::SchedulerSpec spec = sched::SchedulerSpec::tcmSpec();
    spec.scaleToRun(scale.warmup + scale.measure);

    const auto t0 = Clock::now();
    Simulator sim(config, mix, spec, /*seed=*/17);
    sim.run(scale.warmup, scale.measure);
    const auto t1 = Clock::now();

    ipc.clear();
    for (ThreadId t = 0; t < sim.numThreads(); ++t)
        ipc.push_back(sim.measuredIpc(t));
    return std::chrono::duration<double>(t1 - t0).count();
}

/** The event-horizon kernel against the per-cycle loop, timed serially
 *  (a parallel grid would time the pool, not the kernel). */
results::ResultsDoc
cycleskip(const SystemConfig &config, const ExperimentScale &scale, int)
{
    const std::pair<const char *, double> buckets[] = {
        {"low", 0.125}, // 3 of 24 threads memory-intensive
        {"mid", 0.5},
        {"high", 1.0},
    };
    results::ResultsDoc doc("cycleskip", scale);
    for (const auto &[bucket, fracIntensive] : buckets) {
        const auto mix = workload::randomMix(24, fracIntensive, /*seed=*/77);
        // Two timed repetitions per mode, keeping the faster one, so a
        // cold first run doesn't distort the ratio.
        std::vector<double> ipcOff, ipcOn, scratch;
        double off = timedRun(config, false, mix, scale, ipcOff);
        double on = timedRun(config, true, mix, scale, ipcOn);
        off = std::min(off, timedRun(config, false, mix, scale, scratch));
        on = std::min(on, timedRun(config, true, mix, scale, scratch));
        if (ipcOff != ipcOn)
            throw std::runtime_error(
                std::string("cycleSkip diverged from the per-cycle oracle "
                            "on bucket ") +
                bucket);

        const std::string series = std::string("BM_CycleSkip/") + bucket;
        doc.set(series, "seconds_per_cycle_mode", off);
        doc.set(series, "seconds_skip_mode", on);
        doc.set(series, "speedup", on > 0.0 ? off / on : 0.0);
    }
    return doc;
}

} // namespace

results::ResultsDoc
fig4(const SystemConfig &config, const ExperimentScale &scale, int jobs)
{
    return pointGrid("fig4", config, scale, jobs,
                     schedulerPoints(config,
                                     mixedWorkloads(config, scale, 2000),
                                     paperSchedulers()),
                     /*withHs=*/true);
}

results::ResultsDoc
table4(const SystemConfig &config, const ExperimentScale &scale)
{
    const auto t0 = Clock::now();
    results::ResultsDoc doc("table4", scale);
    double worstMpkiErr = 0.0, worstRblErr = 0.0, worstBlpErr = 0.0;
    // table4 runs Simulator directly (no runWorkload), so it attaches
    // its own profiler, one per run because attach re-sizes the
    // collector to the run's geometry. Profiles fold into the run
    // block; no per-run file is written.
    const bool profiled = requestedProfile(config).enabled;
    prof::ProfileReport mergedProf;
    for (const auto &profile : workload::benchmarkTable()) {
        Simulator sim(config, {profile}, sched::SchedulerSpec::frfcfs(), 99,
                      /*enableProbe=*/true);
        prof::Profiler profiler;
        if (profiled)
            sim.attach({.profiler = &profiler});
        sim.run(scale.warmup, scale.measure * 2);
        if (profiled)
            mergedProf.merge(profiler.report());
        auto b = sim.behavior(0);

        double mpkiErr = profile.mpki > 0.05
                             ? 100.0 * (b.mpki - profile.mpki) / profile.mpki
                             : 0.0;
        double rblErr = b.rbl - profile.rbl;
        double blpErr = b.blp - profile.blp;
        worstMpkiErr = std::max(worstMpkiErr, std::fabs(mpkiErr));
        worstRblErr = std::max(worstRblErr, std::fabs(rblErr));
        worstBlpErr = std::max(worstBlpErr, std::fabs(blpErr));

        results::Row &row = doc.row(profile.name);
        row.set("mpki_target", profile.mpki);
        row.set("mpki", b.mpki);
        row.set("mpki_err_pct", mpkiErr);
        row.set("rbl_target", profile.rbl);
        row.set("rbl", b.rbl);
        row.set("rbl_err", rblErr);
        row.set("blp_target", profile.blp);
        row.set("blp", b.blp);
        row.set("blp_err", blpErr);
    }
    results::Row &worst = doc.row("worst");
    worst.set("mpki_err_pct", worstMpkiErr);
    worst.set("rbl_err", worstRblErr);
    worst.set("blp_err", worstBlpErr);
    stamp(doc, t0, config, &mergedProf);
    return doc;
}

results::ResultsDoc
table6(const SystemConfig &config, const ExperimentScale &scale, int jobs)
{
    const auto t0 = Clock::now();
    // Mixed-heterogeneity population: half heterogeneous at 50%
    // intensity, half homogeneous-leaning at 100%.
    Workloads workloads;
    auto a = workload::workloadSet((scale.workloadsPerCategory + 1) / 2,
                                   config.numCores, 0.5, 6000);
    auto b = workload::workloadSet((scale.workloadsPerCategory + 1) / 2,
                                   config.numCores, 1.0, 6500);
    workloads.insert(workloads.end(), a.begin(), a.end());
    workloads.insert(workloads.end(), b.begin(), b.end());

    struct Algo
    {
        const char *label;
        sched::ShuffleMode mode;
        bool nicestAtTop;
    };
    const Algo algos[] = {
        {"round-robin", sched::ShuffleMode::RoundRobin, true},
        {"random", sched::ShuffleMode::Random, true},
        {"insertion", sched::ShuffleMode::Insertion, true},
        {"insertion(literal)", sched::ShuffleMode::Insertion, false},
        {"TCM (dynamic)", sched::ShuffleMode::Dynamic, true},
        {"TCM (dyn,literal)", sched::ShuffleMode::Dynamic, false},
    };

    std::vector<GridPoint> points;
    for (const Algo &algo : algos) {
        sched::SchedulerSpec spec = sched::SchedulerSpec::tcmSpec();
        spec.tcm.shuffleMode = algo.mode;
        spec.tcm.nicestAtTop = algo.nicestAtTop;
        points.push_back({algo.label, "", config, spec, 13, workloads});
    }
    const std::vector<AggregateResult> aggs =
        evaluateGrid(profiled(points), scale, jobs);

    results::ResultsDoc doc("table6", scale);
    for (std::size_t i = 0; i < points.size(); ++i) {
        results::Row &row = doc.row(points[i].series);
        row.set("ms_avg", aggs[i].maxSlowdown.mean());
        row.set("ms_var", aggs[i].maxSlowdown.variance());
    }
    const prof::ProfileReport profile = mergedProfile(aggs);
    stamp(doc, t0, config, &profile);
    return doc;
}

results::ResultsDoc
zoo(const SystemConfig &config, const ExperimentScale &scale, int jobs)
{
    const std::vector<sched::SchedulerSpec> specs = {
        sched::SchedulerSpec::frfcfs(),
        sched::SchedulerSpec::atlasSpec(),
        sched::SchedulerSpec::tcmSpec(),
        sched::SchedulerSpec::blissSpec(),
        sched::SchedulerSpec::ghtSpec(),
        sched::SchedulerSpec::cpFrfcfsSpec(),
        sched::SchedulerSpec::tournamentSpec(),
    };
    return pointGrid("zoo", config, scale, jobs,
                     schedulerPoints(config,
                                     mixedWorkloads(config, scale, 2000),
                                     specs),
                     /*withHs=*/true);
}

results::ResultsDoc
sampling(const SystemConfig &config, const ExperimentScale &scale, int jobs,
         const results::ResultsDoc *fullFig4)
{
    const auto t0 = Clock::now();

    ExperimentScale fullScale = scale;
    fullScale.sampling = SamplingConfig{}; // off

    ExperimentScale sampScale = scale;
    if (!sampScale.sampling.enabled)
        sampScale.sampling.enabled = true; // header defaults (30k + 3x14k)

    const results::ResultsDoc full =
        fullFig4 ? *fullFig4 : fig4(config, fullScale, jobs);
    const results::ResultsDoc sampled = fig4(config, sampScale, jobs);

    // Maximum slowdown tracks one worst-case thread through quantum-scale
    // scheduling phases, and the sampled span covers about one quantum
    // (SchedulerSpec::scaleToRun floors its quanta at 20-50k cycles), so
    // the scheduler whose full-run MS is itself a divergent starvation
    // statistic — ATLAS in every blessed configuration — has no finite
    // short-horizon MS estimate. Its error is reported per-row and in
    // ms_err_max, but the gated band (ms_err_max_bounded) covers the
    // bounded-slowdown schedulers; ATLAS's MS conclusions gate through
    // the preserved ordering claims instead.
    std::string worstMsSeries;
    double worstMs = -1.0;
    for (const results::Row &fullRow : full.rows) {
        const double *ms = fullRow.find("ms");
        if (ms && *ms > worstMs) {
            worstMs = *ms;
            worstMsSeries = fullRow.series;
        }
    }

    results::ResultsDoc doc("sampling", fullScale);
    const char *metrics[] = {"ws", "ms", "hs"};
    double errMax[3] = {0.0, 0.0, 0.0};
    double msErrBounded = 0.0;
    for (const results::Row &fullRow : full.rows) {
        results::Row &row = doc.row(fullRow.series);
        for (int m = 0; m < 3; ++m) {
            const double *f = fullRow.find(metrics[m]);
            const double *s = sampled.find(fullRow.series, "", metrics[m]);
            if (!f || !s)
                continue;
            double relerr = *f != 0.0 ? std::fabs(*s - *f) / std::fabs(*f)
                                      : std::fabs(*s);
            errMax[m] = std::max(errMax[m], relerr);
            if (m == 1 && fullRow.series != worstMsSeries)
                msErrBounded = std::max(msErrBounded, relerr);
            row.set(std::string(metrics[m]) + "_full", *f);
            row.set(std::string(metrics[m]) + "_sampled", *s);
            row.set(std::string(metrics[m]) + "_relerr", relerr);
        }
    }

    // Ordering preservation: the fig4.* registry — the reproduction's
    // headline scheduler orderings — must reach the same verdicts on the
    // sampled document. Self-maintaining: new fig4 claims are covered
    // automatically.
    std::vector<claims::Claim> fig4Claims = claims::paperClaims();
    std::erase_if(fig4Claims, [](const claims::Claim &c) {
        return c.id.rfind("fig4.", 0) != 0;
    });
    claims::ResultSet sampledSet;
    sampledSet.add(sampled);
    int failed =
        claims::failureCount(claims::evaluateAll(fig4Claims, sampledSet));

    const double fullCycles = static_cast<double>(
        fullScale.effectiveWarmup() + fullScale.effectiveMeasure());
    const double sampCycles = static_cast<double>(
        sampScale.effectiveWarmup() + sampScale.effectiveMeasure());

    results::Row &summary = doc.row("summary");
    summary.set("ws_err_max", errMax[0]);
    summary.set("ms_err_max", errMax[1]);
    summary.set("ms_err_max_bounded", msErrBounded);
    summary.set("hs_err_max", errMax[2]);
    summary.set("fig4_claims_total",
                static_cast<double>(fig4Claims.size()));
    summary.set("fig4_claims_failed", static_cast<double>(failed));
    summary.set("cycle_ratio",
                sampCycles > 0.0 ? fullCycles / sampCycles : 0.0);
    summary.set("seconds_full", full.wallSeconds);
    summary.set("seconds_sampled", sampled.wallSeconds);
    summary.set("speedup", sampled.wallSeconds > 0.0
                               ? full.wallSeconds / sampled.wallSeconds
                               : 0.0);
    stamp(doc, t0, config);
    // The sampled grid's self-profile (empty when unprofiled). fig4
    // profiles the full leg alike, so the speedup compares like runs.
    doc.profileMetrics = sampled.profileMetrics;
    return doc;
}

const std::vector<Figure> &
figures()
{
    static const std::vector<Figure> registry = [] {
        // A relative reading of @p metric: @p series against @p ref in
        // document @p bench ("<series> vs <ref>, <METRIC>").
        auto vs = [](const std::string &bench, const std::string &series,
                     const std::string &ref, const std::string &metric,
                     std::optional<double> paperPct) {
            std::string upper;
            for (char c : metric)
                upper += static_cast<char>(std::toupper(c));
            return Comparison{series + " vs " + ref + ", " + upper,
                              bench + "/" + series + "/" + metric,
                              bench + "/" + ref + "/" + metric, paperPct};
        };
        std::vector<Comparison> table8Rows;
        for (const SystemPoint &p : table8Systems(SystemConfig{})) {
            const std::string row =
                "table8/" + std::string(p.series) + "@" + p.label + "/";
            table8Rows.push_back({p.label + ": TCM vs ATLAS, WS",
                                  row + "tcm_ws", row + "atlas_ws", {}});
            table8Rows.push_back({p.label + ": TCM vs ATLAS, MS",
                                  row + "tcm_ms", row + "atlas_ms", {}});
        }

        return std::vector<Figure>{
            {"fig1",
             "Figure 1: performance vs fairness of prior scheduling "
             "algorithms",
             "PAR-BS is the most fair and ATLAS has the highest throughput:\n"
             "no prior scheduler wins both; FR-FCFS has the worst\n"
             "throughput. Workloads: equal thirds at 50/75/100% intensity\n"
             "(a population of its own; fig4 seeds another).",
             {vs("fig1", "ATLAS", "PAR-BS", "ms", 55.0)},
             fig1},
            {"fig2", "Table 1 + Figure 2: random-access vs streaming threads",
             "Two threads of equal intensity but opposite BLP/RBL: the\n"
             "deprioritized random-access (high-BLP) thread suffers far\n"
             "more (>11x) than the deprioritized streaming thread. Rows\n"
             "random-access and streaming are each thread measured alone\n"
             "(Table 1); slowdown@ra_first and @st_first strictly\n"
             "prioritize one thread.",
             {
                 {"random-access MPKI", "fig2/random-access/mpki", "", 100.0},
                 {"random-access BLP", "fig2/random-access/blp", "", 11.6},
                 {"random-access RBL", "fig2/random-access/rbl", "", 0.001},
                 {"streaming MPKI", "fig2/streaming/mpki", "", 100.0},
                 {"streaming BLP", "fig2/streaming/blp", "", 1.0},
                 {"streaming RBL", "fig2/streaming/rbl", "", 0.99},
                 {"(a) random-access first: random-access slowdown",
                  "fig2/slowdown@ra_first/random_access", "", 1.2},
                 {"(a) random-access first: streaming slowdown",
                  "fig2/slowdown@ra_first/streaming", "", 5.3},
                 {"(b) streaming first: random-access slowdown",
                  "fig2/slowdown@st_first/random_access", "", 11.4},
                 {"(b) streaming first: streaming slowdown",
                  "fig2/slowdown@st_first/streaming", "", 1.05},
             },
             fig2},
            {"fig3",
             "Figure 3: visualizing shuffling algorithms (T0 least nice "
             "... T3 nicest)",
             "Rows P1 (top priority) .. P4 hold the thread at each position\n"
             "in ShuffleIntervals s1..s8 (one insertion period, 2N);\n"
             "t<k>_top_frac is thread k's share of intervals on top. The\n"
             "paper's Algorithm 2 pseudocode is ambiguous about rank\n"
             "direction; TCM's default (insertion) resolves it so nicer\n"
             "threads are prioritized more often, and insertion(literal)\n"
             "is the literal reading. table6 compares both.",
             {},
             fig3},
            {"fig4", "Figure 4: TCM vs prior schedulers (headline)",
             "TCM sits at the best corner: higher weighted speedup than\n"
             "every prior algorithm and lower maximum slowdown; ATLAS is\n"
             "close on throughput but far worse on fairness; PAR-BS is\n"
             "close on fairness but worse on throughput. Workloads: equal\n"
             "thirds at 50/75/100% intensity.",
             {vs("fig4", "TCM", "ATLAS", "ws", 4.6),
              vs("fig4", "TCM", "ATLAS", "ms", -38.6),
              vs("fig4", "TCM", "PAR-BS", "ws", 7.6),
              vs("fig4", "TCM", "PAR-BS", "ms", -4.6)},
             fig4},
            {"fig5", "Figure 5: individual workloads A-D (Table 5)",
             "TCM's improvements are consistent across individual\n"
             "workloads, not an artifact of averaging. Points A-D are the\n"
             "Table 5 workloads; avg is the mean over random\n"
             "50%-intensity workloads.",
             {},
             fig5},
            {"fig6",
             "Figure 6: performance-fairness trade-off (parameter sweeps, "
             "50%-intensity workloads)",
             "Only TCM exposes a smooth continuum: its ClusterThresh\n"
             "(2/24 .. 6/24) trades maximum slowdown against weighted\n"
             "speedup, while ATLAS (QuantumLength), PAR-BS (BatchCap) and\n"
             "STFM (FairnessThreshold) stay biased to throughput or to\n"
             "fairness whatever their knob. FR-FCFS has no knob.",
             {},
             fig6},
            {"fig7", "Figure 7: effect of workload memory intensity",
             "TCM's advantage over PAR-BS and ATLAS grows with memory\n"
             "intensity (points i25 .. i100).",
             {vs("fig7", "TCM@i100", "ATLAS@i100", "ws", 10.1),
              vs("fig7", "TCM@i100", "ATLAS@i100", "ms", -48.6),
              vs("fig7", "TCM@i100", "PAR-BS@i100", "ws", 7.4),
              vs("fig7", "TCM@i100", "PAR-BS@i100", "ms", -5.8)},
             fig7},
            {"fig8", "Figure 8: operating system thread weights",
             "Weights are assigned the worst way for throughput: the\n"
             "heaviest thread gets the largest weight (mcf 32 .. gcc 1).\n"
             "ATLAS honors them blindly and crushes the light threads; TCM\n"
             "honors them within clusters, keeping the light threads fast\n"
             "while still favoring the weighted heavy threads.",
             {{"TCM vs ATLAS, WS", "fig8/system/tcm_ws",
               "fig8/system/atlas_ws", 82.8},
              {"TCM vs ATLAS, MS", "fig8/system/tcm_ms",
               "fig8/system/atlas_ms", -44.2}},
             fig8},
            {"table2", "Table 2: per-controller monitoring storage (bits)",
             "TCM's behaviour monitoring fits in under 4 Kbits per\n"
             "controller (under 0.5 Kbits with random shuffling only), on\n"
             "the 24-thread, 4-bank baseline.",
             {
                 {"MPKI counters", "table2/bits/mpki_counters", "", 240.0},
                 {"load counters", "table2/bits/load_counters", "", 576.0},
                 {"BLP counters", "table2/bits/blp_counters", "", 48.0},
                 {"BLP average", "table2/bits/blp_average", "", 48.0},
                 {"shadow row-buffer index", "table2/bits/shadow_row_indices",
                  "", 1344.0},
                 {"shadow row-buffer hits", "table2/bits/shadow_hit_counters",
                  "", 1536.0},
                 {"total (paper: < 4 Kbits)", "table2/bits/total", "", {}},
                 {"random-shuffle-only total (paper: < 0.5 Kbits)",
                  "table2/bits/total_random_shuffle_only", "", {}},
             },
             table2},
            {"table4",
             "Table 4: synthetic clone calibration (measured alone vs "
             "paper)",
             "Each clone runs alone on the baseline system; its measured\n"
             "MPKI, RBL and BLP against the paper's targets are the\n"
             "evidence that the clones preserve scheduler-visible\n"
             "behaviour. Row worst holds the worst absolute errors.",
             {},
             [](const SystemConfig &c, const ExperimentScale &s, int) {
                 return table4(c, s);
             }},
            {"table6", "Table 6: maximum slowdown by shuffling algorithm",
             "Round-robin is worst; random and insertion are better but\n"
             "high-variance; TCM's dynamic switch wins on both the average\n"
             "and the variance. The (literal) rows ablate the literal\n"
             "reading of Algorithm 2 (TcmParams::nicestAtTop).",
             {
                 {"round-robin MS average", "table6/round-robin/ms_avg", "",
                  5.58},
                 {"round-robin MS variance", "table6/round-robin/ms_var", "",
                  1.61},
                 {"random MS average", "table6/random/ms_avg", "", 5.13},
                 {"random MS variance", "table6/random/ms_var", "", 1.53},
                 {"insertion MS average", "table6/insertion/ms_avg", "",
                  4.96},
                 {"insertion MS variance", "table6/insertion/ms_var", "",
                  1.45},
                 {"TCM dynamic MS average", "table6/TCM (dynamic)/ms_avg",
                  "", 4.84},
                 {"TCM dynamic MS variance", "table6/TCM (dynamic)/ms_var",
                  "", 0.85},
             },
             table6},
            {"table7", "Table 7: TCM sensitivity to algorithmic parameters",
             "Performance is robust across ShuffleAlgoThresh 0.05 .. 0.10\n"
             "and ShuffleInterval 500 .. 800 cycles (paper: WS 14.2-14.7,\n"
             "MS 5.4-6.0), with slightly lower throughput at shorter\n"
             "shuffle intervals (reduced row-buffer locality).",
             {},
             table7},
            {"table8", "Table 8: TCM vs ATLAS across system configurations",
             "TCM's throughput advantage over ATLAS is small but positive\n"
             "everywhere (paper: WS +0..5%), and its fairness advantage\n"
             "(MS -28..-53%) holds across every configuration. The LLC\n"
             "size is emulated by scaling MPKI.",
             table8Rows,
             table8},
            {"zoo", "Scheduler zoo: BLISS / GHT / FRFCFS-CP / Tournament",
             "Not a paper figure; the fig4 population. BLISS lands near\n"
             "TCM on fairness at slightly lower throughput; GHT trades\n"
             "fairness for locality-driven throughput; FRFCFS-CP tracks\n"
             "FR-FCFS; Tournament stays within a few percent of its best\n"
             "candidate on weighted speedup.",
             {vs("zoo", "BLISS", "TCM", "ws", {}),
              vs("zoo", "BLISS", "TCM", "ms", {}),
              vs("zoo", "GHT", "TCM", "ws", {}),
              vs("zoo", "GHT", "TCM", "ms", {}),
              vs("zoo", "Tournament", "TCM", "ws", {}),
              vs("zoo", "Tournament", "TCM", "ms", {}),
              vs("zoo", "FRFCFS-CP", "FR-FCFS", "ws", {}),
              vs("zoo", "FRFCFS-CP", "FR-FCFS", "ms", {})},
             zoo},
            {"ablations", "Substrate ablations (50%-intensity workloads)",
             "Not a paper figure: DESIGN.md section 5's substrate choices.\n"
             " * FCFS ~ FR-FCFS: a work-conserving command-level engine\n"
             "   already exploits open rows structurally (a conflict's PRE\n"
             "   is blocked by tRAS while row hits remain issuable).\n"
             " * refresh costs a few percent of throughput.\n"
             " * later write drains batch better (higher WS).\n"
             " * smart-closed paging is WS-neutral under these mixes but\n"
             "   costs fairness (reactivations hit locality-poor threads).\n"
             " * DDR3-1333 (8 banks, faster burst) lifts WS and fairness.\n"
             " * splitting 8 banks across 2 ranks costs a little bandwidth\n"
             "   (tRTRS turnarounds) for the same contention behaviour.\n"
             " * FQM equalizes bandwidth, not slowdown: high WS, but the\n"
             "   threads that need more service for equal progress suffer.\n"
             " * ATLAS's unfairness is a bandwidth-share problem, not a\n"
             "   request-age problem: tightening the aging valve barely\n"
             "   moves maximum slowdown.",
             {},
             ablations},
            {"cycleskip", "BM_CycleSkip: event-horizon kernel speedup",
             "Not a paper figure: wall seconds of the per-cycle loop and of\n"
             "the event-horizon kernel (best of two runs each, TCM, 24\n"
             "cores) by intensity bucket; low-intensity workloads skip the\n"
             "most. The two kernels' per-thread IPCs must be bit-identical\n"
             "or the run fails.",
             {},
             cycleskip},
            {"sampling", "BM_Sampling: interval-sampled vs full runs",
             "Not a paper figure: the fig4 grid full-length and interval-\n"
             "sampled (TCMSIM_SAMPLE=W:K[:WARMUP], default 3x14k windows\n"
             "after a 30k warmup). The sampling.* claims gate the error\n"
             "bands, the fig4 orderings on the sampled document and the\n"
             "cycle ratio; speedup and seconds_* are wall-clock, reported\n"
             "only.",
             {},
             [](const SystemConfig &c, const ExperimentScale &s, int jobs) {
                 ExperimentScale sampled = s;
                 const char *env = std::getenv("TCMSIM_SAMPLE");
                 if (env && *env) {
                     std::string err;
                     sampled.sampling = SamplingConfig::parse(env, &err);
                     if (!sampled.sampling.enabled)
                         envReject("TCMSIM_SAMPLE", env, err);
                 }
                 return sampling(c, sampled, jobs);
             }},
        };
    }();
    return registry;
}

} // namespace tcm::sim::paper
