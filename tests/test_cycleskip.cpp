/**
 * @file
 * Differential tests for the event-horizon simulation kernel
 * (SystemConfig::cycleSkip): the cycle-skipping fast path must be
 * bit-identical to the per-cycle oracle loop — same RunResult (IPCs,
 * metrics, protocol verdict), same telemetry stream byte for byte, and
 * the same DRAM command trace as the committed golden file. Any
 * divergence at all, in any of the five paper schedulers or table6's
 * TCM shuffle variants, fails.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dram/observer.hpp"
#include "sched/tcm/shuffle.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "telemetry/sink.hpp"
#include "workload/mixes.hpp"

using namespace tcm;

namespace {

/** Small but non-trivial system: enough channels/threads that every
 *  scheduler exercises real cross-thread contention, small enough that
 *  five schedulers x two modes stay fast. */
sim::SystemConfig
diffConfig(bool cycleSkip)
{
    sim::SystemConfig config;
    config.numCores = 6;
    config.numChannels = 2;
    config.cycleSkip = cycleSkip;
    config.protocolCheck = true;
    config.telemetry.enabled = true;
    config.telemetry.sampleInterval = 5'000;
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

/** Serialize a run's telemetry to JSONL and return the bytes. */
std::string
telemetryBytes(const sim::RunResult &r, const std::string &tag)
{
    EXPECT_TRUE(r.telemetry != nullptr);
    std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("tcmsim_cycleskip_" + tag + ".jsonl");
    r.telemetry->writeJsonl(path.string());
    std::string bytes = readFile(path.string());
    std::filesystem::remove(path);
    return bytes;
}

class CycleSkipDifferential
    : public testing::TestWithParam<sched::SchedulerSpec>
{
};

/** The algorithm name, plus the shuffle mode and "literal" for the
 *  TCM variants other than the paper's default, as an identifier. */
std::string
schedName(const testing::TestParamInfo<sched::SchedulerSpec> &info)
{
    const sched::SchedulerSpec &spec = info.param;
    std::string n = sched::algoName(spec.algo);
    if (spec.algo == sched::Algo::Tcm &&
        (spec.tcm.shuffleMode != sched::ShuffleMode::Dynamic ||
         !spec.tcm.nicestAtTop)) {
        n += std::string("_") + sched::shuffleModeName(spec.tcm.shuffleMode);
        if (!spec.tcm.nicestAtTop)
            n += "_literal";
    }
    for (char &c : n)
        if (c == '-')
            c = '_';
    return n;
}

/** table6's shuffle variants besides the paper's TCM, which the
 *  PaperSchedulers instantiation already runs. */
std::vector<sched::SchedulerSpec>
table6ShuffleVariants()
{
    const std::pair<sched::ShuffleMode, bool> variants[] = {
        {sched::ShuffleMode::RoundRobin, true},
        {sched::ShuffleMode::Random, true},
        {sched::ShuffleMode::Insertion, true},
        {sched::ShuffleMode::Insertion, false},
        {sched::ShuffleMode::Dynamic, false},
    };
    std::vector<sched::SchedulerSpec> specs;
    for (auto [mode, nicestAtTop] : variants) {
        sched::SchedulerSpec spec = sched::SchedulerSpec::tcmSpec();
        spec.tcm.shuffleMode = mode;
        spec.tcm.nicestAtTop = nicestAtTop;
        specs.push_back(spec);
    }
    return specs;
}

} // namespace

TEST_P(CycleSkipDifferential, RunResultsAreBitIdentical)
{
    sched::SchedulerSpec spec = GetParam();
    sim::ExperimentScale scale;
    scale.warmup = 20'000;
    scale.measure = 120'000;

    // Mixed-intensity workload so the run exercises both fast-forward
    // regimes (dormant memory-bound threads and streaming compute-bound
    // threads) plus the lockstep boundary cases between them.
    auto mix = workload::randomMix(6, 0.5, /*seed=*/42);

    sim::SystemConfig onCfg = diffConfig(true);
    sim::SystemConfig offCfg = diffConfig(false);
    // Separate alone-IPC caches: the alone runs themselves must also be
    // identical across modes for ipcAlone to match exactly.
    sim::AloneIpcCache onCache(onCfg, scale.warmup, scale.measure);
    sim::AloneIpcCache offCache(offCfg, scale.warmup, scale.measure);

    sim::RunResult on =
        sim::runWorkload(onCfg, mix, spec, scale, onCache, /*seed=*/13);
    sim::RunResult off =
        sim::runWorkload(offCfg, mix, spec, scale, offCache, /*seed=*/13);

    ASSERT_EQ(on.ipcShared.size(), off.ipcShared.size());
    for (std::size_t t = 0; t < on.ipcShared.size(); ++t) {
        EXPECT_EQ(on.ipcShared[t], off.ipcShared[t]) << "thread " << t;
        EXPECT_EQ(on.ipcAlone[t], off.ipcAlone[t]) << "thread " << t;
    }
    EXPECT_EQ(on.metrics.weightedSpeedup, off.metrics.weightedSpeedup);
    EXPECT_EQ(on.metrics.maxSlowdown, off.metrics.maxSlowdown);
    EXPECT_EQ(on.metrics.harmonicSpeedup, off.metrics.harmonicSpeedup);
    EXPECT_EQ(on.metrics.speedups, off.metrics.speedups);
    EXPECT_EQ(on.metrics.slowdowns, off.metrics.slowdowns);

    EXPECT_EQ(on.protocolViolations, 0u) << on.protocolReport;
    EXPECT_EQ(off.protocolViolations, 0u) << off.protocolReport;

    // The full telemetry stream — interval samples, scheduler-decision
    // events, lifecycle latencies — must match byte for byte: any
    // skipped scheduler event or shifted sample cycle shows up here.
    std::string name = schedName(testing::TestParamInfo<sched::SchedulerSpec>(
        GetParam(), 0));
    EXPECT_EQ(telemetryBytes(on, name + "_on"),
              telemetryBytes(off, name + "_off"));
}

INSTANTIATE_TEST_SUITE_P(PaperSchedulers, CycleSkipDifferential,
                         testing::ValuesIn(sim::paperSchedulers()),
                         schedName);
INSTANTIATE_TEST_SUITE_P(Table6Shuffles, CycleSkipDifferential,
                         testing::ValuesIn(table6ShuffleVariants()),
                         schedName);

// ---------------------------------------------------------------------------
// Command-stream identity: the per-cycle oracle must reproduce the
// committed golden trace exactly (test_golden.cpp already pins the
// skip-on stream to the same file, so together these prove on == off at
// per-command granularity).
// ---------------------------------------------------------------------------

namespace {

std::string
commandTrace(bool cycleSkip, std::size_t events)
{
    sim::SystemConfig config;
    config.numCores = 2;
    config.numChannels = 1;
    config.cycleSkip = cycleSkip;
    auto mix = workload::randomMix(config.numCores, 1.0, /*seed=*/99);
    sched::SchedulerSpec spec = sched::SchedulerSpec::frfcfs();
    spec.scaleToRun(30'000);

    sim::Simulator sim(config, mix, spec, /*seed=*/99);
    dram::CommandTraceRecorder recorder(events);
    sim.attach({.commands = {&recorder}});
    sim.step(30'000);
    EXPECT_TRUE(recorder.full());
    return recorder.text();
}

} // namespace

TEST(CycleSkipCommandTrace, OracleMatchesGoldenAndFastPath)
{
    constexpr std::size_t kEvents = 400;
    std::string on = commandTrace(true, kEvents);
    std::string off = commandTrace(false, kEvents);
    EXPECT_EQ(on, off);

    const std::string golden =
        readFile(std::string(TCMSIM_GOLDEN_DIR) +
                 "/cmd_trace_frfcfs_seed99.txt");
    EXPECT_EQ(off, golden);
}
