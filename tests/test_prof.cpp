/**
 * @file
 * Observer purity and reporting tests for the simulator self-profiler
 * (tcm::prof). The load-bearing contract, ObserverPurity: attaching
 * every observer at once (protocol checker, command recorder, telemetry
 * with the behaviour probe, profiler) changes NOTHING the simulation
 * produces — the DRAM command stream, every IPC and metric, and every
 * telemetry JSONL byte are bit-identical, for every registered policy
 * under both execution kernels (per-cycle oracle and cycle-skip). The
 * profiler may read the wall clock; the simulation may not.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dram/observer.hpp"
#include "metrics/metrics.hpp"
#include "prof/profiler.hpp"
#include "sim/experiment.hpp"
#include "sim/paper_experiments.hpp"
#include "sim/simulator.hpp"
#include "telemetry/sink.hpp"
#include "workload/mixes.hpp"
#include "scratch.hpp"

using namespace tcm;

namespace {

/** Small but contended: enough threads and channels for real scan and
 *  skip activity, fast enough for an every-policy x 2-kernel matrix. */
sim::SystemConfig
profConfig(bool cycleSkip, bool profiled)
{
    sim::SystemConfig config;
    config.numCores = 6;
    config.numChannels = 2;
    config.cycleSkip = cycleSkip;
    config.telemetry.enabled = true;
    config.telemetry.sampleInterval = 5'000;
    config.profile.enabled = profiled;
    return config;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

// ---------------------------------------------------------------------------
// Observer purity: every policy x {per-cycle oracle, cycle-skip}.
// ---------------------------------------------------------------------------

namespace {

constexpr Cycle kPurityWarmup = 20'000;
constexpr Cycle kPurityMeasure = 120'000;

/** Which observers a purity run attaches besides the command recorder. */
enum class Attached
{
    RecorderOnly,
    AllButProfiler, //!< checker, recorder, telemetry with probe
    All,            //!< ... and the profiler
};

/** What one purity run produced. */
struct Observed
{
    std::string commands; //!< the full DRAM command stream
    std::vector<double> ipc;
    metrics::WorkloadMetrics metrics;
    std::string jsonl; //!< telemetry bytes; empty without a sink
};

Observed
observedRun(const std::string &policy, bool cycleSkip, Attached attached)
{
    const bool observed = attached != Attached::RecorderOnly;
    sim::SystemConfig config = profConfig(cycleSkip, false);
    config.protocolCheck = observed;
    auto mix = workload::randomMix(config.numCores, 0.5, /*seed=*/42);
    sched::SchedulerSpec spec = sched::specByName(policy).spec;
    spec.scaleToRun(kPurityMeasure);

    sim::Simulator sim(config, mix, spec, /*seed=*/13,
                       /*enableProbe=*/observed);
    dram::CommandTraceRecorder recorder;
    telemetry::TelemetrySink sink(config.telemetry);
    prof::Profiler profiler;
    sim::Observers observers{.commands = {&recorder}};
    if (observed)
        observers.telemetry = &sink;
    if (attached == Attached::All)
        observers.profiler = &profiler;
    sim.attach(observers);
    sim.run(kPurityWarmup, kPurityMeasure);

    // One alone-IPC denominator set serves every run: the metrics then
    // differ only if the shared IPCs do.
    static sim::AloneIpcCache cache(profConfig(true, false), kPurityWarmup,
                                    kPurityMeasure);
    Observed out;
    out.commands = recorder.text();
    std::vector<double> alone;
    for (ThreadId t = 0; t < sim.numThreads(); ++t) {
        out.ipc.push_back(sim.measuredIpc(t));
        alone.push_back(cache.aloneIpc(mix[t]));
    }
    out.metrics = metrics::computeMetrics(alone, out.ipc);
    if (dram::ProtocolChecker *checker = sim.protocolChecker()) {
        checker->finalize(sim.now());
        EXPECT_EQ(checker->violationCount(), 0u) << checker->report();
    }
    if (attached == Attached::All) {
        EXPECT_GT(profiler.report()
                      .phaseCalls[static_cast<int>(prof::Phase::CtrlTick)],
                  0u);
    }
    if (observed) {
        EXPECT_GT(sink.totalRecords(), 0u);
        std::filesystem::path path = test::scratchPath(
            "purity_" + std::to_string(static_cast<int>(attached)) +
            ".jsonl");
        sink.writeJsonl(path.string());
        out.jsonl = readFile(path.string());
        std::filesystem::remove(path);
    }
    return out;
}

class ObserverPurity
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{
};

} // namespace

TEST_P(ObserverPurity, EveryObserverLeavesTheRunBitIdentical)
{
    const auto &[policy, cycleSkip] = GetParam();

    const Observed plain =
        observedRun(policy, cycleSkip, Attached::RecorderOnly);
    const Observed all = observedRun(policy, cycleSkip, Attached::All);
    const Observed unprofiled =
        observedRun(policy, cycleSkip, Attached::AllButProfiler);

    // Check 1: the command stream is the strongest equality oracle the
    // simulator exposes; identical streams mean identical decisions.
    ASSERT_FALSE(plain.commands.empty());
    EXPECT_EQ(plain.commands, all.commands);
    EXPECT_EQ(plain.ipc, all.ipc);
    EXPECT_EQ(plain.metrics.weightedSpeedup, all.metrics.weightedSpeedup);
    EXPECT_EQ(plain.metrics.maxSlowdown, all.metrics.maxSlowdown);
    EXPECT_EQ(plain.metrics.harmonicSpeedup, all.metrics.harmonicSpeedup);
    EXPECT_EQ(plain.metrics.speedups, all.metrics.speedups);
    EXPECT_EQ(plain.metrics.slowdowns, all.metrics.slowdowns);

    // Check 2: the JSONL stream is part of the bit-identity contract;
    // the profiler's "simulator" lane lives only in the Chrome trace.
    ASSERT_FALSE(all.jsonl.empty());
    EXPECT_EQ(unprofiled.jsonl, all.jsonl);
}

INSTANTIATE_TEST_SUITE_P(
    EveryPolicy, ObserverPurity,
    ::testing::Combine(::testing::ValuesIn(sched::policyNames()),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<ObserverPurity::ParamType> &info) {
        std::string name = std::get<0>(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name + (std::get<1>(info.param) ? "_skip" : "_oracle");
    });

// ---------------------------------------------------------------------------
// Command-stream identity: a profiled run reproduces the same committed
// golden DRAM command trace the unprofiled kernels are pinned to
// (test_golden / test_cycleskip).
// ---------------------------------------------------------------------------

namespace {

std::string
commandTrace(bool cycleSkip, bool profiled, std::size_t events)
{
    sim::SystemConfig config;
    config.numCores = 2;
    config.numChannels = 1;
    config.cycleSkip = cycleSkip;
    auto mix = workload::randomMix(config.numCores, 1.0, /*seed=*/99);
    sched::SchedulerSpec spec = sched::SchedulerSpec::frfcfs();
    spec.scaleToRun(30'000);

    sim::Simulator sim(config, mix, spec, /*seed=*/99);
    prof::Profiler profiler;
    dram::CommandTraceRecorder recorder(events);
    sim.attach({.commands = {&recorder},
                .profiler = profiled ? &profiler : nullptr});
    sim.step(30'000);
    EXPECT_TRUE(recorder.full());
    return recorder.text();
}

} // namespace

TEST(ProfilerPurity, GoldenCommandTraceUnchanged)
{
    constexpr std::size_t kEvents = 400;
    const std::string golden = readFile(
        std::string(TCMSIM_GOLDEN_DIR) + "/cmd_trace_frfcfs_seed99.txt");
    for (bool cycleSkip : {false, true})
        EXPECT_EQ(commandTrace(cycleSkip, true, kEvents), golden)
            << "cycleSkip=" << cycleSkip;
}

// ---------------------------------------------------------------------------
// Report content: the profile of a real run must actually explain it.
// ---------------------------------------------------------------------------

TEST(ProfilerReport, EveryRegisteredSchedulerGetsHorizonAttribution)
{
    // The acceptance bar behind `TCMSIM_PROFILE=1 sweep`: under the
    // cycle-skip kernel every registered policy's runs take horizon
    // jumps, and the profiler attributes every one of them to a source.
    const char *names[] = {"frfcfs", "fcfs",   "fqm",       "stfm",
                           "parbs",  "atlas",  "tcm",       "bliss",
                           "ght",    "frfcfs-cp", "tournament"};
    auto mix = workload::randomMix(4, 0.5, /*seed=*/11);
    for (const char *name : names) {
        sched::SpecLookup lookup = sched::specByName(name);
        ASSERT_TRUE(lookup.ok) << name;
        sched::SchedulerSpec spec = lookup.spec;
        spec.scaleToRun(80'000);

        sim::SystemConfig config;
        config.numCores = 4;
        config.numChannels = 2;
        config.cycleSkip = true;
        sim::Simulator sim(config, mix, spec, /*seed=*/3);
        prof::Profiler profiler;
        sim.attach({.profiler = &profiler});
        sim.step(80'000);

        prof::ProfileReport r = profiler.report();
        EXPECT_GT(r.totalSkips(), 0u) << name;
        EXPECT_EQ(r.totalSkips(), r.skipLengths.count()) << name;
        EXPECT_GT(r.totalSkippedCycles(), 0u) << name;
        // Phase timers ran: the controller tick phase is exercised by
        // every policy, and calls imply accumulated (possibly tiny) ns.
        EXPECT_GT(r.phaseCalls[static_cast<int>(prof::Phase::CtrlTick)],
                  0u)
            << name;
        // Every simulated core cycle lands in exactly one regime bucket.
        ASSERT_EQ(r.coreRegimes.size(), 4u) << name;
        for (const auto &core : r.coreRegimes) {
            std::uint64_t total = 0;
            for (std::uint64_t c : core)
                total += c;
            EXPECT_EQ(total, 80'000u) << name;
        }
        EXPECT_GT(r.scan.soaScans + r.scan.fallbackScans, 0u) << name;
        // The read-scan timer counts scans, nothing else: at this
        // intensity writes queue alone often enough that a scan finds
        // the read lane empty, which must open no phase.
        EXPECT_EQ(r.phaseCalls[static_cast<int>(prof::Phase::ReadScan)],
                  r.scan.soaScans)
            << name;
    }
}

TEST(ProfilerReport, MergeAddsRunsAndCounts)
{
    prof::ProfileReport a, b;
    a.enabled = true;
    a.runs = 1;
    a.phaseNs[0] = 100;
    a.phaseCalls[0] = 2;
    a.skipCount[0] = 3;
    a.skipCycles[0] = 300;
    a.coreRegimes.assign(2, {});
    a.coreRegimes[0][0] = 7;
    b = a;
    b.coreRegimes.assign(4, {});
    b.coreRegimes[3][2] = 5;

    a.merge(b);
    EXPECT_EQ(a.runs, 2);
    EXPECT_EQ(a.phaseNs[0], 200u);
    EXPECT_EQ(a.phaseCalls[0], 4u);
    EXPECT_EQ(a.skipCount[0], 6u);
    EXPECT_EQ(a.skipCycles[0], 600u);
    ASSERT_EQ(a.coreRegimes.size(), 4u);
    EXPECT_EQ(a.coreRegimes[0][0], 7u);
    EXPECT_EQ(a.coreRegimes[3][2], 5u);

    prof::ProfileReport disabled;
    int runsBefore = a.runs;
    a.merge(disabled); // merging a never-enabled report is a no-op
    EXPECT_EQ(a.runs, runsBefore);
}

TEST(ProfilerReport, ProvenanceKeysAreSchemaStable)
{
    prof::ProfileReport r;
    r.enabled = true;
    r.runs = 1;
    auto kv = r.provenance();
    // Fixed order: 5 phase_ms keys, 4 skip summary keys, 5 horizon
    // sources, 3 regimes, 3 scan counters = 20 entries.
    ASSERT_EQ(kv.size(), 20u);
    EXPECT_EQ(kv[0].first, "sched_tick_ms");
    EXPECT_EQ(kv[4].first, "telemetry_ms");
    EXPECT_EQ(kv[5].first, "skips");
    EXPECT_EQ(kv[8].first, "skip_max");
    EXPECT_EQ(kv[9].first, "horizon_scheduler");
    EXPECT_EQ(kv[13].first, "horizon_end");
    EXPECT_EQ(kv[14].first, "dormant_cycles");
    EXPECT_EQ(kv[19].first, "fallback_scans");
}

TEST(ProfilerReport, JsonAndPrintAreWellFormed)
{
    auto mix = workload::randomMix(4, 0.5, /*seed=*/11);
    sched::SchedulerSpec spec = sched::SchedulerSpec::tcmSpec();
    spec.scaleToRun(40'000);
    sim::SystemConfig config;
    config.numCores = 4;
    sim::Simulator sim(config, mix, spec, /*seed=*/3);
    prof::Profiler profiler;
    sim.attach({.profiler = &profiler});
    sim.step(40'000);

    prof::ProfileReport r = profiler.report();
    std::string json = r.toJson();
    EXPECT_NE(json.find("\"schema\": \"tcmsim-profile-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"horizon\""), std::string::npos);
    EXPECT_NE(json.find("\"regimes\""), std::string::npos);

    // print() renders every section of an enabled report; the
    // disabled default renders nothing at all.
    std::FILE *f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    r.print(f);
    long withProfile = std::ftell(f);
    std::rewind(f);
    prof::ProfileReport().print(f);
    long without = std::ftell(f);
    std::fclose(f);
    EXPECT_GT(withProfile, 0);
    EXPECT_EQ(without, 0);
}

// ---------------------------------------------------------------------------
// Configuration plumbing.
// ---------------------------------------------------------------------------

TEST(ProfileConfig, FromEnvContract)
{
    ::unsetenv("TCMSIM_PROFILE");
    EXPECT_FALSE(prof::ProfileConfig::fromEnv().enabled);

    ::setenv("TCMSIM_PROFILE", "", 1);
    EXPECT_FALSE(prof::ProfileConfig::fromEnv().enabled);

    ::setenv("TCMSIM_PROFILE", "0", 1);
    EXPECT_FALSE(prof::ProfileConfig::fromEnv().enabled);

    ::setenv("TCMSIM_PROFILE", "1", 1);
    prof::ProfileConfig on = prof::ProfileConfig::fromEnv();
    EXPECT_TRUE(on.enabled);
    EXPECT_TRUE(on.dir.empty());

    ::setenv("TCMSIM_PROFILE", "/tmp/prof_out", 1);
    prof::ProfileConfig dir = prof::ProfileConfig::fromEnv();
    EXPECT_TRUE(dir.enabled);
    EXPECT_EQ(dir.dir, "/tmp/prof_out");

    ::unsetenv("TCMSIM_PROFILE");
}

TEST(ProfileConfig, OnlyANamedCellWritesProfileJson)
{
    ::unsetenv("TCMSIM_PROFILE");
    std::filesystem::path dir = test::scratchPath("prof_json_test");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    sim::ExperimentScale scale;
    scale.warmup = 5'000;
    scale.measure = 30'000;
    auto mix = workload::randomMix(2, 0.5, /*seed=*/8);
    sim::SystemConfig cfg;
    cfg.numCores = 2;
    cfg.numChannels = 1;
    cfg.profile.enabled = true;
    cfg.profile.dir = dir.string();
    sim::AloneIpcCache cache(cfg, scale.warmup, scale.measure);
    sim::RunResult r = sim::runWorkload(cfg, mix,
                                        sched::SchedulerSpec::frfcfs(),
                                        scale, cache, /*seed=*/4);
    ASSERT_NE(r.profile, nullptr);
    EXPECT_TRUE(std::filesystem::is_empty(dir)) << "runWorkload wrote";

    ThreadPool pool(1);
    sim::runCells({{cfg, &cache, mix, sched::SchedulerSpec::frfcfs(), 4,
                    "x"}},
                  scale, pool);
    std::filesystem::path file = dir / "x.profile.json";
    ASSERT_TRUE(std::filesystem::exists(file)) << file;
    std::string json = readFile(file.string());
    EXPECT_NE(json.find("tcmsim-profile-v1"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(ProfileConfig, Table4HonorsTheEnvironmentKnob)
{
    // table4 builds its Simulators directly; it must resolve the
    // profile request exactly as runWorkload does.
    sim::ExperimentScale scale;
    scale.warmup = 1'000;
    scale.measure = 4'000;
    ::setenv("TCMSIM_PROFILE", "1", 1);
    sim::results::ResultsDoc doc =
        sim::paper::table4(sim::SystemConfig{}, scale);
    ::unsetenv("TCMSIM_PROFILE");
    EXPECT_FALSE(doc.profileMetrics.empty());
}

TEST(ProfileConfig, OnlyProfileReadersHonorTheEnvironmentKnob)
{
    // The knob is resolved only where a profile is read: a plain grid
    // attaches no profiler, while fig4 folds its runs' profiles into
    // the document's run block.
    sim::ExperimentScale scale;
    scale.warmup = 1'000;
    scale.measure = 4'000;
    scale.workloadsPerCategory = 1;
    sim::SystemConfig cfg;
    cfg.numCores = 2;
    cfg.numChannels = 1;
    ::setenv("TCMSIM_PROFILE", "1", 1);
    const std::vector<std::vector<workload::ThreadProfile>> mixes = {
        workload::randomMix(2, 0.5, /*seed=*/8)};
    std::vector<sim::AggregateResult> aggs = sim::evaluateGrid(
        {{"", "", cfg, sched::SchedulerSpec::frfcfs(), 1, mixes},
         {"", "", cfg, sched::SchedulerSpec::tcmSpec(), 1, mixes}},
        scale, /*jobs=*/1);
    sim::results::ResultsDoc doc = sim::paper::fig4(cfg, scale, /*jobs=*/1);
    ::unsetenv("TCMSIM_PROFILE");

    ASSERT_EQ(aggs.size(), 2u);
    for (const sim::AggregateResult &agg : aggs)
        EXPECT_FALSE(agg.profile.enabled) << agg.scheduler;
    EXPECT_FALSE(doc.profileMetrics.empty());
}

TEST(ProfileConfig, SamplingKeepsTheProfileItMakes)
{
    // Under the knob both fig4 legs are profiled; the sampling document
    // carries the sampled grid's profile in its run block.
    sim::ExperimentScale scale;
    scale.warmup = 1'000;
    scale.measure = 4'000;
    scale.workloadsPerCategory = 1;
    scale.sampling.enabled = true;
    scale.sampling.warmup = 1'000;
    scale.sampling.window = 1'000;
    scale.sampling.windows = 2;
    sim::SystemConfig cfg;
    cfg.numCores = 2;
    cfg.numChannels = 1;
    ::setenv("TCMSIM_PROFILE", "1", 1);
    sim::results::ResultsDoc doc =
        sim::paper::sampling(cfg, scale, /*jobs=*/1);
    ::unsetenv("TCMSIM_PROFILE");

    EXPECT_FALSE(doc.profileMetrics.empty());
    EXPECT_NE(doc.toJson().find("\"profile\""), std::string::npos);
}

TEST(Profiler, DetachedSitesAreInert)
{
    // A null shard must mean "no clock read, no write": the detached
    // instrumentation cost the hot path pays.
    prof::ScopedPhase nop(nullptr, prof::Phase::CtrlTick);
    prof::PhaseShard shard;
    {
        prof::ScopedPhase timed(&shard, prof::Phase::CtrlTick);
    }
    EXPECT_EQ(shard.calls[static_cast<int>(prof::Phase::CtrlTick)], 1u);
}

// ---------------------------------------------------------------------------
// The Chrome-trace "simulator" lane.
// ---------------------------------------------------------------------------

TEST(SimulatorLane, ChromeTraceGainsLaneOnlyWhenProfiled)
{
    ::unsetenv("TCMSIM_PROFILE");
    sim::ExperimentScale scale;
    scale.warmup = 5'000;
    scale.measure = 40'000;
    auto mix = workload::randomMix(4, 0.5, /*seed=*/42);

    std::vector<sim::RunResult> runs;
    auto chromeTrace = [&](bool profiled) {
        sim::SystemConfig cfg = profConfig(true, profiled);
        sim::AloneIpcCache cache(cfg, scale.warmup, scale.measure);
        sim::RunResult r =
            sim::runWorkload(cfg, mix, sched::SchedulerSpec::tcmSpec(),
                             scale, cache, /*seed=*/13);
        EXPECT_TRUE(r.telemetry != nullptr);
        EXPECT_EQ(r.profile != nullptr && r.profile->enabled, profiled);
        runs.push_back(r);
        std::filesystem::path path =
            test::scratchPath(profiled ? "lane_on.json" : "lane_off.json");
        r.telemetry->writeChromeTrace(path.string());
        std::string bytes = readFile(path.string());
        std::filesystem::remove(path);
        return bytes;
    };

    std::string off = chromeTrace(false);
    std::string on = chromeTrace(true);
    // runWorkload's results, alone IPCs included, ignore the profiler.
    EXPECT_EQ(runs[0].ipcShared, runs[1].ipcShared);
    EXPECT_EQ(runs[0].ipcAlone, runs[1].ipcAlone);
    EXPECT_EQ(off.find("\"simulator\""), std::string::npos);
    EXPECT_NE(on.find("\"simulator\""), std::string::npos);
    EXPECT_NE(on.find("sim.wall_ms"), std::string::npos);
    EXPECT_NE(on.find("sim.skip"), std::string::npos);
    // Counter samples land on the dedicated tid-1 lane.
    EXPECT_NE(on.find("\"tid\":1"), std::string::npos);
    // Well-formed trace array either way (Perfetto-loadable shape).
    EXPECT_EQ(on.front(), '[');
    EXPECT_EQ(on.substr(on.size() - 2), "]\n");
}
