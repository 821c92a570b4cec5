/**
 * @file
 * Golden regression tests: fixed-seed end-to-end runs whose headline
 * metrics must stay inside recorded bands. These catch silent behaviour
 * drift (a scheduler change, a timing fix, a generator tweak) that the
 * unit tests' invariants would let through.
 *
 * Bands are deliberately generous (+/-15% around the recorded value):
 * they should only trip on *behavioural* changes, never on compiler or
 * platform noise (the simulator itself is bit-deterministic per build).
 * When a deliberate change moves a metric, re-record the band and say
 * why in the commit.
 */

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dram/observer.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "workload/mixes.hpp"

using namespace tcm;

namespace {

struct Golden
{
    sched::Algo algo;
    double ws;
    double ms;
};

class GoldenWorkloadA : public testing::TestWithParam<Golden>
{
};

std::string
goldenName(const testing::TestParamInfo<Golden> &info)
{
    std::string n = sched::algoName(info.param.algo);
    for (char &c : n)
        if (c == '-')
            c = '_';
    return n;
}

} // namespace

TEST_P(GoldenWorkloadA, MetricsWithinRecordedBands)
{
    Golden g = GetParam();
    sim::SystemConfig config;
    sim::ExperimentScale scale;
    scale.warmup = 50'000;
    scale.measure = 300'000;
    sim::AloneIpcCache cache(config, scale.warmup, scale.measure);

    auto mix = workload::tableFiveWorkload('A');
    sched::SchedulerSpec spec;
    spec.algo = g.algo;
    sim::RunResult r = sim::runWorkload(config, mix, spec, scale, cache,
                                        /*seed=*/7);

    EXPECT_NEAR(r.metrics.weightedSpeedup, g.ws, 0.15 * g.ws)
        << "weighted speedup drifted";
    EXPECT_NEAR(r.metrics.maxSlowdown, g.ms, 0.15 * g.ms)
        << "maximum slowdown drifted";
}

// Recorded on the baseline configuration (Table 5 workload A, seed 7,
// 300K measured cycles) at the time the repository was finalized.
INSTANTIATE_TEST_SUITE_P(Recorded, GoldenWorkloadA,
                         testing::Values(
                             Golden{sched::Algo::FrFcfs, 11.50, 4.54},
                             Golden{sched::Algo::ParBs, 12.11, 4.48},
                             Golden{sched::Algo::Atlas, 13.74, 14.18},
                             Golden{sched::Algo::Tcm, 12.88, 6.48}),
                         goldenName);

// ---------------------------------------------------------------------------
// Golden command trace: the exact DRAM command stream of a tiny
// deterministic run, diffed command-for-command. Where the metric bands
// above allow +/-15% drift, this catches any change at all in command
// selection or timing — one cycle of difference in one ACT fails the
// test. When a deliberate change moves the stream, regenerate with
//   TCMSIM_REGOLD=1 ctest -R test_golden
// and explain the change in the commit.
// ---------------------------------------------------------------------------

namespace {

/** The 2-core, 1-channel system every golden command trace runs on. */
sim::SystemConfig
traceSystem()
{
    sim::SystemConfig config;
    config.numCores = 2;
    config.numChannels = 1;
    return config;
}

/** Record a 400-event command trace of @p config under @p spec and diff
 *  (or regold, with TCMSIM_REGOLD=1) against the golden at @p path. */
void
checkCommandTrace(const sim::SystemConfig &config,
                  const sched::SchedulerSpec &spec, const std::string &path)
{
    constexpr std::size_t kEvents = 400;

    auto mix = workload::randomMix(config.numCores, 1.0, /*seed=*/99);
    sched::SchedulerSpec scaled = spec;
    scaled.scaleToRun(30'000);

    sim::Simulator sim(config, mix, scaled, /*seed=*/99);
    dram::CommandTraceRecorder recorder(kEvents);
    sim.attach({.commands = {&recorder}});
    sim.step(30'000);
    ASSERT_TRUE(recorder.full())
        << "run produced only " << recorder.lines().size() << " of "
        << kEvents << " trace events";

    if (std::getenv("TCMSIM_REGOLD") != nullptr) {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << recorder.text();
        GTEST_SKIP() << "golden trace regenerated at " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (run once with TCMSIM_REGOLD=1 to record it)";
    std::vector<std::string> expected;
    for (std::string line; std::getline(in, line);)
        if (!line.empty())
            expected.push_back(line);

    const std::vector<std::string> &actual = recorder.lines();
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < actual.size(); ++i)
        ASSERT_EQ(expected[i], actual[i])
            << "command stream diverges at event #" << i;
}

} // namespace

TEST(GoldenCommandTrace, FrFcfsCommandStreamIsBitStable)
{
    checkCommandTrace(traceSystem(), sched::SchedulerSpec::frfcfs(),
                      std::string(TCMSIM_GOLDEN_DIR) +
                          "/cmd_trace_frfcfs_seed99.txt");
}

// The BLISS trace pins the blacklisting path at per-command granularity:
// on this 2-thread single-channel run the 4-streak threshold trips
// repeatedly, so any change to streak accounting, clearing, or the
// rank flip shifts ACT/column selection and fails the diff.
TEST(GoldenCommandTrace, BlissCommandStreamIsBitStable)
{
    checkCommandTrace(traceSystem(), sched::SchedulerSpec::blissSpec(),
                      std::string(TCMSIM_GOLDEN_DIR) +
                          "/cmd_trace_bliss_seed99.txt");
}

// The drain trace pins write selection and ranks wider than 16 bits: a
// 16-entry write queue with 12:4 watermarks latches write drains inside
// the first 400 commands, and FixedRank's +/-70000 ranks do not fit a
// 16-bit rank field.
TEST(GoldenCommandTrace, DrainWideRankCommandStreamIsBitStable)
{
    sim::SystemConfig config = traceSystem();
    config.controller.writeQueueCap = 16;
    config.controller.writeDrain.highWatermark = 12;
    config.controller.writeDrain.lowWatermark = 4;
    checkCommandTrace(config, sched::SchedulerSpec::fixedRank({70000, -70000}),
                      std::string(TCMSIM_GOLDEN_DIR) +
                          "/cmd_trace_drain_fixedrank_seed99.txt");
}

// The dual-rank trace pins the paths the single-rank DDR2 traces never
// reach: a second rank (tRTRS rank switches, per-rank tFAW/tRRD and
// staggered refresh), DDR4 bank groups (the tCCD_S/tCCD_L and
// tRRD_S/tRRD_L splits) and closed page, whose auto-precharge riders
// appear as autoPre events.
TEST(GoldenCommandTrace, DualRankClosedPageDdr4CommandStreamIsBitStable)
{
    sim::SystemConfig config = traceSystem();
    ASSERT_EQ(config.selectProtocol("ddr4-2400"), "");
    config.timing.banksPerChannel *= 2;
    config.timing.ranksPerChannel = 2;
    checkCommandTrace(config, sched::SchedulerSpec::cpFrfcfsSpec(),
                      std::string(TCMSIM_GOLDEN_DIR) +
                          "/cmd_trace_ddr4_dualrank_cp_seed99.txt");
}
