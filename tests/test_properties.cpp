/**
 * @file
 * Property-based tests: invariants that must hold for every scheduler,
 * workload shape and system configuration. The DRAM state machines
 * assert their own timing constraints (kept on in Release builds), so
 * simply driving traffic through them is a timing-correctness check.
 */

#include <set>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "mem/controller.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "workload/benchmark_table.hpp"
#include "workload/mixes.hpp"

using namespace tcm;
using namespace tcm::sim;

// ---------------------------------------------------------------------------
// Conservation: every submitted read completes exactly once, under every
// scheduler, with randomized traffic.
// ---------------------------------------------------------------------------

namespace {

struct TrafficCase
{
    sched::Algo algo;
    int threads;
    std::uint64_t seed;
};

std::string
caseName(const testing::TestParamInfo<TrafficCase> &info)
{
    std::string n = sched::algoName(info.param.algo);
    for (char &c : n)
        if (c == '-')
            c = '_';
    return n + "_t" + std::to_string(info.param.threads) + "_s" +
           std::to_string(info.param.seed);
}

} // namespace

class ControllerConservation : public testing::TestWithParam<TrafficCase>
{
};

TEST_P(ControllerConservation, EveryReadCompletesOnce)
{
    TrafficCase tc = GetParam();
    dram::TimingParams timing = dram::TimingParams::ddr2_800();

    sched::SchedulerSpec spec;
    spec.algo = tc.algo;
    if (tc.algo == sched::Algo::FixedRank)
        for (int t = 0; t < tc.threads; ++t)
            spec.fixedRanks.push_back(t);
    spec.scaleToRun(60'000);
    auto policy = sched::makeScheduler(spec, tc.seed);
    std::vector<mem::CoreCounters> counters(tc.threads);

    mem::MemoryController mc(0, timing, mem::ControllerParams{}, *policy);
    policy->configure({.numThreads = tc.threads,
                       .numChannels = 1,
                       .banksPerChannel = timing.banksPerChannel,
                       .readQueues = {&mc.readQueue()},
                       .coreCounters = &counters});

    Pcg32 rng(tc.seed);
    std::set<std::uint64_t> outstanding;
    std::uint64_t submitted = 0, completed = 0;
    std::uint64_t nextId = 1;

    for (Cycle now = 0; now < 60'000; ++now) {
        // Random request injection, biased toward a few rows for hits.
        if (rng.nextBool(0.2) && mc.canAcceptRead()) {
            ThreadId t = static_cast<ThreadId>(rng.nextBelow(tc.threads));
            BankId b = static_cast<BankId>(
                rng.nextBelow(timing.banksPerChannel));
            RowId r = static_cast<RowId>(rng.nextBelow(8));
            ColId c = static_cast<ColId>(rng.nextBelow(timing.colsPerRow));
            mc.submitRead(t, nextId, b, r, c, now);
            outstanding.insert(nextId);
            ++nextId;
            ++submitted;
        }
        if (rng.nextBool(0.05) && mc.canAcceptWrite()) {
            ThreadId t = static_cast<ThreadId>(rng.nextBelow(tc.threads));
            mc.submitWrite(t, static_cast<BankId>(rng.nextBelow(4)),
                           static_cast<RowId>(rng.nextBelow(8)), 0, now);
        }
        policy->tick(now);
        mc.tick(now);
        for (const auto &comp : mc.completions()) {
            ASSERT_TRUE(outstanding.count(comp.missId))
                << "duplicate or unknown completion";
            outstanding.erase(comp.missId);
            ++completed;
            ASSERT_GE(comp.readyAt, 0u);
        }
        mc.completions().clear();
    }
    // Drain.
    for (Cycle now = 60'000; now < 90'000 && !outstanding.empty(); ++now) {
        policy->tick(now);
        mc.tick(now);
        for (const auto &comp : mc.completions()) {
            outstanding.erase(comp.missId);
            ++completed;
        }
        mc.completions().clear();
    }
    EXPECT_TRUE(outstanding.empty());
    EXPECT_EQ(submitted, completed);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, ControllerConservation,
    testing::Values(TrafficCase{sched::Algo::FrFcfs, 4, 1},
                    TrafficCase{sched::Algo::FrFcfs, 8, 2},
                    TrafficCase{sched::Algo::Fcfs, 4, 3},
                    TrafficCase{sched::Algo::Fqm, 4, 13},
                    TrafficCase{sched::Algo::Fqm, 8, 14},
                    TrafficCase{sched::Algo::Stfm, 4, 4},
                    TrafficCase{sched::Algo::Stfm, 8, 5},
                    TrafficCase{sched::Algo::ParBs, 4, 6},
                    TrafficCase{sched::Algo::ParBs, 8, 7},
                    TrafficCase{sched::Algo::Atlas, 4, 8},
                    TrafficCase{sched::Algo::Atlas, 8, 9},
                    TrafficCase{sched::Algo::Tcm, 4, 10},
                    TrafficCase{sched::Algo::Tcm, 8, 11},
                    TrafficCase{sched::Algo::FixedRank, 4, 12}),
    caseName);

// ---------------------------------------------------------------------------
// Conservation under closed-page policy: the auto-precharge path must
// not lose or duplicate requests for any scheduler.
// ---------------------------------------------------------------------------

class ClosedPageConservation : public testing::TestWithParam<TrafficCase>
{
};

TEST_P(ClosedPageConservation, EveryReadCompletesOnce)
{
    TrafficCase tc = GetParam();
    SystemConfig cfg;
    cfg.numCores = tc.threads;
    cfg.numChannels = 2;
    cfg.controller.pagePolicy = mem::PagePolicy::Closed;
    auto mix = workload::randomMix(tc.threads, 1.0, tc.seed);
    sched::SchedulerSpec spec;
    spec.algo = tc.algo;
    spec.scaleToRun(60'000);
    Simulator sim(cfg, mix, spec, tc.seed);
    sim.run(10'000, 60'000);
    for (ThreadId t = 0; t < tc.threads; ++t)
        EXPECT_GT(sim.measuredIpc(t), 0.0) << "thread " << t;
}

INSTANTIATE_TEST_SUITE_P(
    Schedulers, ClosedPageConservation,
    testing::Values(TrafficCase{sched::Algo::FrFcfs, 6, 31},
                    TrafficCase{sched::Algo::ParBs, 6, 32},
                    TrafficCase{sched::Algo::Tcm, 6, 33}),
    caseName);

// ---------------------------------------------------------------------------
// Whole-system sweeps: IPC bounds and progress for every scheduler on
// varied configurations.
// ---------------------------------------------------------------------------

namespace {

struct SystemCase
{
    sched::Algo algo;
    int cores;
    int channels;
    double intensity;
    std::uint64_t seed;
};

std::string
sysCaseName(const testing::TestParamInfo<SystemCase> &info)
{
    std::string n = sched::algoName(info.param.algo);
    for (char &c : n)
        if (c == '-')
            c = '_';
    return n + "_c" + std::to_string(info.param.cores) + "_ch" +
           std::to_string(info.param.channels) + "_i" +
           std::to_string(static_cast<int>(info.param.intensity * 100));
}

} // namespace

class SystemSweep : public testing::TestWithParam<SystemCase>
{
};

TEST_P(SystemSweep, IpcBoundedAndPositive)
{
    SystemCase sc = GetParam();
    SystemConfig cfg;
    cfg.numCores = sc.cores;
    cfg.numChannels = sc.channels;

    auto mix = workload::randomMix(sc.cores, sc.intensity, sc.seed);
    sched::SchedulerSpec spec;
    spec.algo = sc.algo;
    spec.scaleToRun(80'000);

    Simulator sim(cfg, mix, spec, sc.seed);
    sim.run(15'000, 80'000);
    for (ThreadId t = 0; t < sc.cores; ++t) {
        double ipc = sim.measuredIpc(t);
        EXPECT_GT(ipc, 0.0) << "thread " << t;
        EXPECT_LE(ipc, cfg.core.retireWidth + 1e-9) << "thread " << t;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SystemSweep,
    testing::Values(
        SystemCase{sched::Algo::FrFcfs, 8, 2, 0.5, 21},
        SystemCase{sched::Algo::Tcm, 8, 2, 0.5, 22},
        SystemCase{sched::Algo::Tcm, 8, 1, 1.0, 23},
        SystemCase{sched::Algo::Tcm, 16, 4, 0.75, 24},
        SystemCase{sched::Algo::Atlas, 8, 2, 1.0, 25},
        SystemCase{sched::Algo::ParBs, 8, 2, 1.0, 26},
        SystemCase{sched::Algo::Stfm, 8, 2, 0.75, 27},
        SystemCase{sched::Algo::Fcfs, 8, 2, 0.5, 28}),
    sysCaseName);

// ---------------------------------------------------------------------------
// Rank-vector sanity under live traffic: ranks used by the controller
// remain a valid total order (permutation) for rank-based schedulers.
// ---------------------------------------------------------------------------

class RankSanity : public testing::TestWithParam<sched::Algo>
{
};

TEST_P(RankSanity, RanksFormPermutationThroughoutRun)
{
    sched::Algo algo = GetParam();
    SystemConfig cfg;
    cfg.numCores = 6;
    cfg.numChannels = 2;
    auto mix = workload::randomMix(6, 1.0, 31);
    sched::SchedulerSpec spec;
    spec.algo = algo;
    spec.scaleToRun(60'000);

    Simulator sim(cfg, mix, spec, 31);
    sim.step(10'000);
    for (int check = 0; check < 20; ++check) {
        sim.step(2'500);
        std::set<int> ranks;
        for (ThreadId t = 0; t < 6; ++t)
            ranks.insert(sim.scheduler().rankOf(0, t));
        EXPECT_EQ(ranks.size(), 6u) << "at " << sim.now();
    }
}

INSTANTIATE_TEST_SUITE_P(RankBased, RankSanity,
                         testing::Values(sched::Algo::Tcm,
                                         sched::Algo::Atlas),
                         [](const testing::TestParamInfo<sched::Algo> &i) {
                             std::string n = sched::algoName(i.param);
                             for (char &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

// ---------------------------------------------------------------------------
// BLISS blacklist invariants under randomized controller traffic:
//  * the knob and the introspection agree every cycle — a blacklisted
//    thread always ranks strictly below every non-blacklisted one, so it
//    is never prioritized over them within an epoch;
//  * blacklists only ever grow between clearings: a thread leaving the
//    blacklist implies a clearing fired, which restores *all* threads.
// ---------------------------------------------------------------------------

class BlissBlacklist : public testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BlissBlacklist, EpochMonotoneAndClearingRestoresAll)
{
    const std::uint64_t seed = GetParam();
    constexpr int kThreads = 4;
    dram::TimingParams timing = dram::TimingParams::ddr2_800();

    sched::BlissParams params;
    params.clearInterval = 5'000; // several epochs in a 60k-cycle run
    sched::Bliss policy(params);
    std::vector<mem::CoreCounters> counters(kThreads);

    mem::MemoryController mc(0, timing, mem::ControllerParams{}, policy);
    policy.configure({.numThreads = kThreads,
                      .numChannels = 1,
                      .banksPerChannel = timing.banksPerChannel,
                      .readQueues = {&mc.readQueue()},
                      .coreCounters = &counters});

    Pcg32 rng(seed);
    std::uint64_t nextId = 1;
    std::uint64_t blacklistEvents = 0;
    std::vector<bool> prev(kThreads, false);

    for (Cycle now = 0; now < 60'000; ++now) {
        // Skewed injection: thread 0 dominates, with row reuse, so
        // same-thread service streaks actually cross the threshold.
        if (rng.nextBool(0.30) && mc.canAcceptRead()) {
            ThreadId t = rng.nextBool(0.55)
                             ? 0
                             : static_cast<ThreadId>(
                                   rng.nextBelow(kThreads));
            BankId b = static_cast<BankId>(
                rng.nextBelow(timing.banksPerChannel));
            RowId r = static_cast<RowId>(rng.nextBelow(4));
            ColId c = static_cast<ColId>(rng.nextBelow(timing.colsPerRow));
            mc.submitRead(t, nextId++, b, r, c, now);
        }
        policy.tick(now);
        mc.tick(now);
        mc.completions().clear();

        bool anyCleared = false;
        for (ThreadId t = 0; t < kThreads; ++t) {
            bool black = policy.isBlacklisted(0, t);
            // Knob/introspection coherence: blacklisted threads sit in
            // the strictly lower rank tier.
            ASSERT_EQ(policy.rankOf(0, t), black ? 0 : 1)
                << "thread " << t << " cycle " << now;
            if (prev[t] && !black)
                anyCleared = true;
            if (black)
                blacklistEvents += !prev[t];
            prev[t] = black;
        }
        // Un-blacklisting happens only via the periodic clearing, which
        // restores every thread at once.
        if (anyCleared) {
            ASSERT_EQ(policy.blacklistedCount(), 0)
                << "partial clear at cycle " << now;
        }
    }
    // The run must actually exercise the mechanism, or the invariants
    // above are vacuously true.
    EXPECT_GT(blacklistEvents, 0u) << "no thread was ever blacklisted";
}

INSTANTIATE_TEST_SUITE_P(RandomTraffic, BlissBlacklist,
                         testing::Values(101, 202, 303, 404, 505));

// ---------------------------------------------------------------------------
// Refresh on/off must not change conservation, only timing.
// ---------------------------------------------------------------------------

TEST(Properties, DualRankSystemRunsEveryScheduler)
{
    SystemConfig cfg;
    cfg.numCores = 8;
    cfg.numChannels = 2;
    cfg.timing.banksPerChannel = 8;
    cfg.timing.ranksPerChannel = 2;
    auto mix = workload::randomMix(8, 1.0, 77);
    for (const auto &base : paperSchedulers()) {
        sched::SchedulerSpec spec = base;
        spec.scaleToRun(80'000);
        Simulator sim(cfg, mix, spec, 77);
        sim.run(10'000, 80'000);
        for (ThreadId t = 0; t < 8; ++t)
            EXPECT_GT(sim.measuredIpc(t), 0.0)
                << base.name() << " thread " << t;
    }
}

TEST(Properties, Ddr3SubstrateRunsAndIsFasterForStreams)
{
    SystemConfig d2, d3;
    d2.numCores = d3.numCores = 2;
    d2.numChannels = d3.numChannels = 1;
    d3.timing = dram::TimingParams::ddr3_1333();
    auto mix = workload::randomMix(2, 1.0, 88);
    Simulator s2(d2, mix, sched::SchedulerSpec::frfcfs(), 88);
    Simulator s3(d3, mix, sched::SchedulerSpec::frfcfs(), 88);
    s2.run(10'000, 100'000);
    s3.run(10'000, 100'000);
    double ipc2 = s2.measuredIpc(0) + s2.measuredIpc(1);
    double ipc3 = s3.measuredIpc(0) + s3.measuredIpc(1);
    EXPECT_GT(ipc3, ipc2); // more banks + faster burst
}

TEST(Properties, ClosedPagePolicyEndToEnd)
{
    // Closed-page must hurt a row-locality-heavy mix (more reactivations)
    // but still complete correctly.
    SystemConfig open, closed;
    open.numCores = closed.numCores = 4;
    open.numChannels = closed.numChannels = 1;
    closed.controller.pagePolicy = mem::PagePolicy::Closed;
    std::vector<workload::ThreadProfile> mix(
        4, workload::benchmarkProfile("libquantum"));
    Simulator so(open, mix, sched::SchedulerSpec::frfcfs(), 5);
    Simulator sc(closed, mix, sched::SchedulerSpec::frfcfs(), 5);
    so.run(10'000, 100'000);
    sc.run(10'000, 100'000);
    double ipcOpen = 0, ipcClosed = 0;
    for (ThreadId t = 0; t < 4; ++t) {
        EXPECT_GT(sc.measuredIpc(t), 0.0);
        ipcOpen += so.measuredIpc(t);
        ipcClosed += sc.measuredIpc(t);
    }
    EXPECT_GE(ipcOpen, ipcClosed * 0.95);
}

TEST(Properties, RefreshOnlyAffectsTimingNotCorrectness)
{
    for (bool refresh : {false, true}) {
        SystemConfig cfg;
        cfg.numCores = 4;
        cfg.numChannels = 1;
        cfg.timing.refreshEnabled = refresh;
        auto mix = workload::randomMix(4, 1.0, 41);
        Simulator sim(cfg, mix, sched::SchedulerSpec::tcmSpec(), 41);
        sim.run(10'000, 60'000);
        for (ThreadId t = 0; t < 4; ++t)
            EXPECT_GT(sim.measuredIpc(t), 0.0) << "refresh " << refresh;
    }
}

TEST(Properties, RefreshCostsThroughput)
{
    SystemConfig on, off;
    on.numCores = off.numCores = 2;
    on.numChannels = off.numChannels = 1;
    off.timing.refreshEnabled = false;

    auto mix = workload::randomMix(2, 1.0, 43);
    Simulator simOn(on, mix, sched::SchedulerSpec::frfcfs(), 43);
    Simulator simOff(off, mix, sched::SchedulerSpec::frfcfs(), 43);
    simOn.run(10'000, 100'000);
    simOff.run(10'000, 100'000);
    double ipcOn = simOn.measuredIpc(0) + simOn.measuredIpc(1);
    double ipcOff = simOff.measuredIpc(0) + simOff.measuredIpc(1);
    EXPECT_LT(ipcOn, ipcOff * 1.001); // refresh can only hurt
}
