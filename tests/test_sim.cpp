/**
 * @file
 * Tests for the simulator layer: determinism, alone-IPC caching,
 * experiment drivers and the behaviour probe.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <set>

#include <gtest/gtest.h>

#include "sim/alone_cache.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "workload/benchmark_table.hpp"
#include "workload/mixes.hpp"
#include "scratch.hpp"

using namespace tcm;
using namespace tcm::sim;

namespace {

SystemConfig
smallConfig()
{
    SystemConfig c;
    c.numCores = 4;
    c.numChannels = 2;
    return c;
}

/** Distinct alone-run behaviours among @p mixes: the alone simulations
 *  a cold cache needs for them. */
std::size_t
distinctProfiles(const std::vector<std::vector<workload::ThreadProfile>> &mixes)
{
    std::set<workload::ThreadProfile::AloneBehaviorKey> keys;
    for (const auto &mix : mixes)
        for (const auto &p : mix)
            keys.insert(p.aloneBehaviorKey());
    return keys.size();
}

ExperimentScale
quickScale()
{
    ExperimentScale s;
    s.warmup = 10'000;
    s.measure = 60'000;
    s.workloadsPerCategory = 2;
    return s;
}

} // namespace

TEST(Simulator, DeterministicAcrossRuns)
{
    SystemConfig cfg = smallConfig();
    auto mix = workload::randomMix(4, 0.5, 3);
    for (auto spec : {sched::SchedulerSpec::frfcfs(),
                      sched::SchedulerSpec::tcmSpec()}) {
        Simulator a(cfg, mix, spec, 7);
        Simulator b(cfg, mix, spec, 7);
        a.run(5000, 50'000);
        b.run(5000, 50'000);
        for (ThreadId t = 0; t < 4; ++t)
            EXPECT_DOUBLE_EQ(a.measuredIpc(t), b.measuredIpc(t))
                << spec.name() << " thread " << t;
    }
}

TEST(Simulator, ChunkedSteppingEqualsSingleRun)
{
    // step(1) x N must be cycle-identical to run(warmup, measure):
    // nothing in the simulator may depend on step granularity.
    SystemConfig cfg = smallConfig();
    auto mix = workload::randomMix(4, 1.0, 3);

    Simulator whole(cfg, mix, sched::SchedulerSpec::tcmSpec(), 7);
    whole.run(5'000, 40'000);

    Simulator chunked(cfg, mix, sched::SchedulerSpec::tcmSpec(), 7);
    for (int i = 0; i < 5; ++i)
        chunked.step(1'000);
    chunked.beginMeasurement();
    Cycle left = 40'000;
    Cycle chunk = 1;
    while (left > 0) {
        Cycle n = std::min(left, chunk);
        chunked.step(n);
        left -= n;
        chunk = chunk * 2 + 1; // irregular chunk sizes
    }
    for (ThreadId t = 0; t < 4; ++t)
        EXPECT_DOUBLE_EQ(whole.measuredIpc(t), chunked.measuredIpc(t));
}

TEST(Simulator, DifferentSeedsGiveDifferentResults)
{
    SystemConfig cfg = smallConfig();
    auto mix = workload::randomMix(4, 0.5, 3);
    Simulator a(cfg, mix, sched::SchedulerSpec::frfcfs(), 7);
    Simulator b(cfg, mix, sched::SchedulerSpec::frfcfs(), 8);
    a.run(5000, 50'000);
    b.run(5000, 50'000);
    bool any_diff = false;
    for (ThreadId t = 0; t < 4; ++t)
        any_diff |= a.measuredIpc(t) != b.measuredIpc(t);
    EXPECT_TRUE(any_diff);
}

TEST(Simulator, LightThreadRunsNearComputeBound)
{
    SystemConfig cfg = smallConfig();
    std::vector<workload::ThreadProfile> mix = {
        workload::benchmarkProfile("povray")}; // MPKI 0.01
    Simulator sim(cfg, mix, sched::SchedulerSpec::frfcfs(), 1);
    sim.run(10'000, 100'000);
    EXPECT_GT(sim.measuredIpc(0), 2.5); // 3-wide core, almost no misses
}

TEST(Simulator, HeavyThreadIsMemoryBound)
{
    SystemConfig cfg = smallConfig();
    std::vector<workload::ThreadProfile> mix = {
        workload::benchmarkProfile("mcf")}; // MPKI 97
    Simulator sim(cfg, mix, sched::SchedulerSpec::frfcfs(), 1);
    sim.run(10'000, 100'000);
    EXPECT_LT(sim.measuredIpc(0), 1.5);
    EXPECT_GT(sim.measuredIpc(0), 0.01);
}

TEST(Simulator, SharingSlowsThreadsDown)
{
    SystemConfig cfg = smallConfig();
    workload::ThreadProfile heavy = workload::benchmarkProfile("mcf");
    Simulator alone(cfg, {heavy}, sched::SchedulerSpec::frfcfs(), 1);
    alone.run(10'000, 100'000);
    Simulator shared(cfg, {heavy, heavy, heavy, heavy},
                     sched::SchedulerSpec::frfcfs(), 1);
    shared.run(10'000, 100'000);
    EXPECT_LT(shared.measuredIpc(0), alone.measuredIpc(0));
}

TEST(Simulator, ProbeMeasuresBehaviour)
{
    SystemConfig cfg = smallConfig();
    workload::ThreadProfile p = workload::benchmarkProfile("libquantum");
    Simulator sim(cfg, {p}, sched::SchedulerSpec::frfcfs(), 1,
                  /*enableProbe=*/true);
    sim.run(20'000, 200'000);
    auto b = sim.behavior(0);
    EXPECT_NEAR(b.mpki, p.mpki, p.mpki * 0.25);
    EXPECT_NEAR(b.rbl, p.rbl, 0.08);
    EXPECT_NEAR(b.blp, p.blp, 0.6);
}

TEST(Simulator, MpkiScaleEmulatesLargerCache)
{
    SystemConfig cfg = smallConfig();
    cfg.mpkiScale = 0.25;
    workload::ThreadProfile p = workload::benchmarkProfile("mcf");
    Simulator sim(cfg, {p}, sched::SchedulerSpec::frfcfs(), 1,
                  /*enableProbe=*/true);
    sim.run(20'000, 100'000);
    EXPECT_LT(sim.behavior(0).mpki, 40.0); // ~97 * 0.25
}

TEST(AloneCache, MemoizesPerProfile)
{
    SystemConfig cfg = smallConfig();
    AloneIpcCache cache(cfg, 5000, 30'000);
    workload::ThreadProfile mcf = workload::benchmarkProfile("mcf");
    double a = cache.aloneIpc(mcf);
    double b = cache.aloneIpc(mcf);
    EXPECT_DOUBLE_EQ(a, b);
    EXPECT_EQ(cache.size(), 1u);
    cache.aloneIpc(workload::benchmarkProfile("povray"));
    EXPECT_EQ(cache.size(), 2u);
}

TEST(AloneCache, WeightDoesNotChangeAloneIpc)
{
    SystemConfig cfg = smallConfig();
    AloneIpcCache cache(cfg, 5000, 30'000);
    workload::ThreadProfile p = workload::benchmarkProfile("lbm");
    double base = cache.aloneIpc(p);
    p.weight = 16;
    EXPECT_DOUBLE_EQ(cache.aloneIpc(p), base);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(Experiment, RunWorkloadProducesConsistentMetrics)
{
    SystemConfig cfg = smallConfig();
    ExperimentScale scale = quickScale();
    AloneIpcCache cache(cfg, scale.warmup, scale.measure);
    auto mix = workload::randomMix(4, 0.5, 11);
    RunResult r = runWorkload(cfg, mix, sched::SchedulerSpec::tcmSpec(),
                              scale, cache, 5);
    ASSERT_EQ(r.ipcShared.size(), 4u);
    EXPECT_GT(r.metrics.weightedSpeedup, 0.0);
    EXPECT_LE(r.metrics.weightedSpeedup, 4.0 + 1e-9);
    EXPECT_GE(r.metrics.maxSlowdown, 1.0 - 0.1);
}

TEST(Experiment, EvaluateMatrixAggregatesOneScheduler)
{
    SystemConfig cfg = smallConfig();
    ExperimentScale scale = quickScale();
    AloneIpcCache cache(cfg, scale.warmup, scale.measure);
    auto sets = workload::workloadSet(3, 4, 0.5, 17);
    AggregateResult agg =
        evaluateMatrix(cfg, sets, {sched::SchedulerSpec::frfcfs()}, scale,
                       cache, 1)
            .front();
    EXPECT_EQ(agg.weightedSpeedup.count(), 3u);
    EXPECT_EQ(agg.scheduler, "FR-FCFS");
}

TEST(Experiment, ScaleFromEnvRespectsOverrides)
{
    setenv("TCMSIM_CYCLES", "123456", 1);
    setenv("TCMSIM_WORKLOADS", "3", 1);
    ExperimentScale s = ExperimentScale::fromEnv();
    EXPECT_EQ(s.measure, 123456u);
    EXPECT_EQ(s.workloadsPerCategory, 3);
    unsetenv("TCMSIM_CYCLES");
    unsetenv("TCMSIM_WORKLOADS");
}

TEST(Experiment, PaperSchedulerListsComplete)
{
    EXPECT_EQ(paperSchedulers().size(), 5u);
    EXPECT_EQ(priorSchedulers().size(), 4u);
}

TEST(AloneCache, NameDoesNotChangeAloneIpc)
{
    // `name` is a label, not behaviour: same entry, same value.
    SystemConfig cfg = smallConfig();
    AloneIpcCache cache(cfg, 5000, 30'000);
    workload::ThreadProfile p = workload::benchmarkProfile("lbm");
    double base = cache.aloneIpc(p);
    p.name = "renamed";
    EXPECT_DOUBLE_EQ(cache.aloneIpc(p), base);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(AloneCache, KeyCoversEveryBehaviorField)
{
    // Audit of ThreadProfile::aloneBehaviorKey(): perturbing any
    // behaviour-affecting field must yield a distinct cache entry (no
    // aliasing), while the two non-behavioural fields (name, weight)
    // must share the entry. If a new behaviour field is ever added to
    // ThreadProfile without extending the key, the distinct-entry count
    // here is where it shows up.
    SystemConfig cfg = smallConfig();
    AloneIpcCache cache(cfg, 5000, 30'000);
    workload::ThreadProfile base;
    base.mpki = 10.0;
    base.rbl = 0.5;
    base.blp = 2.0;
    base.writeFraction = 0.25;
    cache.aloneIpc(base);
    EXPECT_EQ(cache.size(), 1u);

    workload::ThreadProfile p = base;
    p.mpki = 20.0;
    cache.aloneIpc(p);
    EXPECT_EQ(cache.size(), 2u);

    p = base;
    p.rbl = 0.9;
    cache.aloneIpc(p);
    EXPECT_EQ(cache.size(), 3u);

    p = base;
    p.blp = 3.0;
    cache.aloneIpc(p);
    EXPECT_EQ(cache.size(), 4u);

    p = base;
    p.writeFraction = 0.75;
    cache.aloneIpc(p);
    EXPECT_EQ(cache.size(), 5u);

    p = base;
    p.name = "other";
    p.weight = 8;
    cache.aloneIpc(p);
    EXPECT_EQ(cache.size(), 5u); // label and weight don't simulate anew
}

TEST(AloneCache, PrewarmFillsEveryDistinctProfile)
{
    SystemConfig cfg = smallConfig();
    AloneIpcCache cache(cfg, 5000, 30'000);
    auto sets = workload::workloadSet(3, 4, 0.5, 23);
    const std::size_t distinct = distinctProfiles(sets);
    ThreadPool pool(4);
    cache.prewarm(sets, pool);
    EXPECT_EQ(cache.size(), distinct);
    cache.prewarm(sets, pool); // idempotent
    EXPECT_EQ(cache.size(), distinct);
}

namespace {

/** Bit-exact comparison: the determinism guarantee is "identical", not
 *  "close", so no ULP tolerance here. */
void
expectStatIdentical(const RunningStat &a, const RunningStat &b)
{
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.variance(), b.variance());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
}

void
expectAggregatesIdentical(const AggregateResult &a, const AggregateResult &b)
{
    EXPECT_EQ(a.scheduler, b.scheduler);
    expectStatIdentical(a.weightedSpeedup, b.weightedSpeedup);
    expectStatIdentical(a.maxSlowdown, b.maxSlowdown);
    expectStatIdentical(a.harmonicSpeedup, b.harmonicSpeedup);
}

} // namespace

TEST(Experiment, OneSchedulerDeterministicAcrossJobCounts)
{
    // The acceptance bar of the parallel runner: TCMSIM_JOBS=1 and
    // TCMSIM_JOBS=8 produce bit-identical aggregates.
    SystemConfig cfg = smallConfig();
    ExperimentScale scale = quickScale();
    auto sets = workload::workloadSet(4, 4, 0.5, 17);

    setenv("TCMSIM_JOBS", "1", 1);
    AloneIpcCache serialCache(cfg, scale.warmup, scale.measure);
    AggregateResult serial =
        evaluateMatrix(cfg, sets, {sched::SchedulerSpec::tcmSpec()}, scale,
                       serialCache, 5)
            .front();

    setenv("TCMSIM_JOBS", "8", 1);
    AloneIpcCache parallelCache(cfg, scale.warmup, scale.measure);
    AggregateResult parallel =
        evaluateMatrix(cfg, sets, {sched::SchedulerSpec::tcmSpec()}, scale,
                       parallelCache, 5)
            .front();
    unsetenv("TCMSIM_JOBS");

    expectAggregatesIdentical(serial, parallel);
    EXPECT_EQ(serialCache.size(), parallelCache.size());
}

TEST(Experiment, EvaluateMatrixDeterministicAcrossJobCounts)
{
    SystemConfig cfg = smallConfig();
    ExperimentScale scale = quickScale();
    auto sets = workload::workloadSet(3, 4, 0.75, 29);
    std::vector<sched::SchedulerSpec> specs = {
        sched::SchedulerSpec::frfcfs(),
        sched::SchedulerSpec::atlasSpec(),
        sched::SchedulerSpec::tcmSpec(),
    };

    AloneIpcCache serialCache(cfg, scale.warmup, scale.measure);
    auto serial =
        evaluateMatrix(cfg, sets, specs, scale, serialCache, 7, /*jobs=*/1);

    AloneIpcCache parallelCache(cfg, scale.warmup, scale.measure);
    auto parallel = evaluateMatrix(cfg, sets, specs, scale, parallelCache, 7,
                                   /*jobs=*/8);

    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s)
        expectAggregatesIdentical(serial[s], parallel[s]);
}

TEST(Experiment, EvaluateMatrixEqualsPerSchedulerMatrices)
{
    // The matrix is a packing of independent one-scheduler grids: same
    // seeds, same fold order, so bit-identical per scheduler.
    SystemConfig cfg = smallConfig();
    ExperimentScale scale = quickScale();
    auto sets = workload::workloadSet(3, 4, 0.5, 41);
    std::vector<sched::SchedulerSpec> specs = {
        sched::SchedulerSpec::frfcfs(),
        sched::SchedulerSpec::tcmSpec(),
    };

    AloneIpcCache cacheA(cfg, scale.warmup, scale.measure);
    auto matrix = evaluateMatrix(cfg, sets, specs, scale, cacheA, 3);

    AloneIpcCache cacheB(cfg, scale.warmup, scale.measure);
    for (std::size_t s = 0; s < specs.size(); ++s) {
        AggregateResult single =
            evaluateMatrix(cfg, sets, {specs[s]}, scale, cacheB, 3).front();
        expectAggregatesIdentical(matrix[s], single);
    }
}

TEST(Experiment, MatrixRunsWriteNoPerRunFiles)
{
    // Two TCM shuffle variants share the display name and the seeds, so
    // no file name could tell their runs apart: a matrix writes no
    // per-run file and hands every run's profile and sink back instead.
    namespace fs = std::filesystem;
    const fs::path dir = test::scratchPath("matrix_files");
    fs::remove_all(dir);
    fs::create_directories(dir);
    SystemConfig cfg = smallConfig();
    cfg.profile.enabled = true;
    cfg.profile.dir = dir.string();
    cfg.telemetry.enabled = true;
    cfg.telemetry.dir = dir.string();
    ExperimentScale scale = quickScale();
    sched::SchedulerSpec random = sched::SchedulerSpec::tcmSpec();
    random.tcm.shuffleMode = sched::ShuffleMode::Random;
    sched::SchedulerSpec insertion = sched::SchedulerSpec::tcmSpec();
    insertion.tcm.shuffleMode = sched::ShuffleMode::Insertion;
    ASSERT_STREQ(random.name(), insertion.name());

    AloneIpcCache cache(cfg, scale.warmup, scale.measure);
    auto grid = runMatrix(cfg, workload::workloadSet(2, 4, 0.5, 31),
                          {random, insertion}, scale, cache, 1, /*jobs=*/2);
    for (const auto &row : grid)
        for (const RunResult &r : row) {
            EXPECT_NE(r.profile, nullptr);
            EXPECT_NE(r.telemetry, nullptr);
        }
    EXPECT_TRUE(fs::is_empty(dir));
    fs::remove_all(dir);
}

TEST(Experiment, RunCellsPrewarmsEachCacheOverItsOwnCells)
{
    // Cells on two configurations, interleaved: each cache simulates
    // exactly the distinct profiles of its own cells, and a rerun of the
    // same cells simulates nothing.
    ExperimentScale scale = quickScale();
    SystemConfig ddr2 = smallConfig();
    SystemConfig ddr3 = smallConfig();
    ASSERT_EQ(ddr3.selectProtocol("ddr3-1600"), "");
    AloneIpcCache cache2(ddr2, scale.warmup, scale.measure);
    AloneIpcCache cache3(ddr3, scale.warmup, scale.measure);
    auto mixes2 = workload::workloadSet(2, 4, 0.5, 43);
    auto mixes3 = workload::workloadSet(2, 4, 1.0, 47);
    std::vector<Cell> cells;
    for (const sched::SchedulerSpec &spec :
         {sched::SchedulerSpec::frfcfs(), sched::SchedulerSpec::tcmSpec()})
        for (std::size_t w = 0; w < 2; ++w) {
            cells.push_back({ddr2, &cache2, mixes2[w], spec, w, ""});
            cells.push_back({ddr3, &cache3, mixes3[w], spec, w, ""});
        }

    ThreadPool pool(2);
    for (int pass = 0; pass < 2; ++pass) {
        EXPECT_EQ(runCells(cells, scale, pool).size(), cells.size());
        EXPECT_EQ(cache2.misses(), distinctProfiles(mixes2)) << pass;
        EXPECT_EQ(cache3.misses(), distinctProfiles(mixes3)) << pass;
    }
}
