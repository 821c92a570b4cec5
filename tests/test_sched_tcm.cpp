/**
 * @file
 * Unit tests for TCM's building blocks: clustering (Algorithm 1),
 * niceness, insertion/random/round-robin shuffling (Algorithm 2), the
 * behaviour monitor, and the integrated Tcm policy's quantum behaviour.
 */

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "sched/tcm/clustering.hpp"
#include "sched/tcm/monitor.hpp"
#include "sched/tcm/niceness.hpp"
#include "sched/tcm/shuffle.hpp"
#include "sched/tcm/tcm.hpp"

using namespace tcm;
using namespace tcm::sched;

// ---------------------------------------------------------------------------
// Clustering (Algorithm 1)
// ---------------------------------------------------------------------------

TEST(Clustering, ZeroTotalUsagePutsEveryoneInBandwidthCluster)
{
    ClusterResult r = clusterThreads({0.1, 5.0, 2.0}, {0, 0, 0}, 0.2);
    EXPECT_TRUE(r.latency.empty());
    EXPECT_EQ(r.bandwidth.size(), 3u);
}

TEST(Clustering, LightThreadsFitUnderBudget)
{
    // Threads 0,1 are light (tiny usage), 2,3 heavy.
    std::vector<double> mpki = {0.1, 0.5, 50.0, 80.0};
    std::vector<std::uint64_t> bw = {10, 10, 490, 490};
    // Budget = 0.1 * 1000 = 100: both light threads fit (10 + 10 <= 100),
    // the first heavy one (510 > 100) breaks.
    ClusterResult r = clusterThreads(mpki, bw, 0.1);
    EXPECT_EQ(r.latency, (std::vector<ThreadId>{0, 1}));
    EXPECT_EQ(r.bandwidth, (std::vector<ThreadId>{2, 3}));
}

TEST(Clustering, WalksInMpkiOrderNotUsageOrder)
{
    // Thread 1 has the lowest MPKI but huge usage: it blocks the budget
    // even though thread 0 (tiny usage) would fit.
    std::vector<double> mpki = {5.0, 1.0};
    std::vector<std::uint64_t> bw = {1, 999};
    ClusterResult r = clusterThreads(mpki, bw, 0.1);
    EXPECT_TRUE(r.latency.empty());
    // Bandwidth cluster preserves the MPKI walk order after the break.
    EXPECT_EQ(r.bandwidth, (std::vector<ThreadId>{1, 0}));
}

TEST(Clustering, LargeThresholdTakesAll)
{
    std::vector<double> mpki = {1, 2, 3};
    std::vector<std::uint64_t> bw = {100, 100, 100};
    ClusterResult r = clusterThreads(mpki, bw, 1.0);
    EXPECT_EQ(r.latency.size(), 3u);
    EXPECT_TRUE(r.bandwidth.empty());
}

TEST(Clustering, LatencyClusterSortedByMpki)
{
    std::vector<double> mpki = {3.0, 1.0, 2.0};
    std::vector<std::uint64_t> bw = {1, 1, 1};
    ClusterResult r = clusterThreads(mpki, bw, 1.0);
    EXPECT_EQ(r.latency, (std::vector<ThreadId>{1, 2, 0}));
}

// ---------------------------------------------------------------------------
// Niceness
// ---------------------------------------------------------------------------

TEST(Niceness, HighBlpIsNiceHighRblIsHostile)
{
    // Thread 0: random-access-like (high BLP, low RBL) -> nicest.
    // Thread 1: streaming-like (low BLP, high RBL) -> least nice.
    std::vector<double> blp = {11.6, 1.0};
    std::vector<double> rbl = {0.001, 0.99};
    auto n = computeNiceness(blp, rbl, {0, 1}, 2);
    EXPECT_GT(n[0], n[1]);
}

TEST(Niceness, OnlyClusterMembersRanked)
{
    std::vector<double> blp = {5, 1, 3};
    std::vector<double> rbl = {0.1, 0.9, 0.5};
    auto n = computeNiceness(blp, rbl, {0, 2}, 3);
    EXPECT_EQ(n[1], 0.0); // excluded thread untouched
    EXPECT_GT(n[0], n[2]);
}

TEST(Niceness, SymmetricDifferenceForEqualBehaviour)
{
    std::vector<double> blp = {2, 2, 2};
    std::vector<double> rbl = {0.5, 0.5, 0.5};
    auto n = computeNiceness(blp, rbl, {0, 1, 2}, 3);
    // Ties break by id; the niceness values are a permutation of the
    // same rank differences, summing to zero.
    EXPECT_DOUBLE_EQ(n[0] + n[1] + n[2], 0.0);
}

// ---------------------------------------------------------------------------
// ShuffleState
// ---------------------------------------------------------------------------

namespace {

std::vector<int>
unitWeights(int n)
{
    return std::vector<int>(n, 1);
}

} // namespace

TEST(Shuffle, InsertionStartsNicestOnTop)
{
    std::vector<double> nice = {0.0, 1.0, 2.0, 3.0};
    Pcg32 rng(1);
    ShuffleState s({0, 1, 2, 3}, nice, unitWeights(4),
                   ShuffleMode::Insertion, &rng);
    EXPECT_EQ(s.order().back(), 3);  // nicest at highest priority
    EXPECT_EQ(s.order().front(), 0); // least nice at lowest priority
}

TEST(Shuffle, InsertionFollowsAlgorithmTwo)
{
    // Hand-simulated Algorithm 2 for 4 threads with niceness 0..3.
    std::vector<double> nice = {0.0, 1.0, 2.0, 3.0};
    Pcg32 rng(1);
    ShuffleState s({0, 1, 2, 3}, nice, unitWeights(4),
                   ShuffleMode::Insertion, &rng);
    using V = std::vector<ThreadId>;
    const std::vector<V> expect = {
        {0, 1, 2, 3}, // decSort(4,4): no-op
        {0, 1, 3, 2}, // decSort(3,4)
        {0, 3, 2, 1}, // decSort(2,4)
        {3, 2, 1, 0}, // decSort(1,4)
        {3, 2, 1, 0}, // incSort(1,1): no-op
        {2, 3, 1, 0}, // incSort(1,2)
        {1, 2, 3, 0}, // incSort(1,3)
        {0, 1, 2, 3}, // incSort(1,4): full period
    };
    for (const V &want : expect) {
        s.step();
        EXPECT_EQ(s.order(), want);
    }
}

TEST(Shuffle, InsertionPeriodIsTwoN)
{
    std::vector<double> nice = {0, 1, 2, 3, 4, 5};
    Pcg32 rng(1);
    ShuffleState s({0, 1, 2, 3, 4, 5}, nice, unitWeights(6),
                   ShuffleMode::Insertion, &rng);
    auto initial = s.order();
    for (int i = 0; i < 12; ++i)
        s.step();
    EXPECT_EQ(s.order(), initial);
}

TEST(Shuffle, RoundRobinRotates)
{
    std::vector<double> nice = {0, 1, 2, 3};
    Pcg32 rng(1);
    ShuffleState s({0, 1, 2, 3}, nice, unitWeights(4),
                   ShuffleMode::RoundRobin, &rng);
    auto before = s.order();
    s.step();
    auto after = s.order();
    // Rotation preserves relative order (the paper's criticism).
    for (std::size_t i = 0; i < before.size(); ++i)
        EXPECT_EQ(after[i], before[(i + 1) % before.size()]);
}

TEST(Shuffle, RandomVisitsManyPermutations)
{
    std::vector<double> nice = {0, 1, 2, 3};
    Pcg32 rng(99);
    ShuffleState s({0, 1, 2, 3}, nice, unitWeights(4), ShuffleMode::Random,
                   &rng);
    std::set<std::vector<ThreadId>> seen;
    for (int i = 0; i < 200; ++i) {
        s.step();
        seen.insert(s.order());
    }
    EXPECT_GT(seen.size(), 20u); // of 24 possible
}

TEST(Shuffle, EveryStepIsAPermutation)
{
    std::vector<double> nice = {5, 1, 4, 2, 3};
    Pcg32 rng(7);
    for (ShuffleMode mode : {ShuffleMode::Insertion, ShuffleMode::Random,
                             ShuffleMode::RoundRobin}) {
        ShuffleState s({0, 1, 2, 3, 4}, nice, unitWeights(5), mode, &rng);
        for (int i = 0; i < 50; ++i) {
            s.step();
            auto o = s.order();
            std::sort(o.begin(), o.end());
            EXPECT_EQ(o, (std::vector<ThreadId>{0, 1, 2, 3, 4}))
                << shuffleModeName(mode);
        }
    }
}

TEST(Shuffle, WeightedTopSlotProportionalToWeight)
{
    std::vector<double> nice = {0, 1, 2};
    std::vector<int> weights = {1, 1, 1};
    weights.resize(3);
    weights[0] = 6; // thread 0 six times the weight of each other
    weights[1] = 1;
    weights[2] = 1;
    Pcg32 rng(5);
    ShuffleState s({0, 1, 2}, nice, weights, ShuffleMode::Random, &rng);
    int topCount[3] = {};
    constexpr int kSteps = 6000;
    for (int i = 0; i < kSteps; ++i) {
        s.step();
        ++topCount[s.order().back()];
    }
    double frac0 = static_cast<double>(topCount[0]) / kSteps;
    EXPECT_NEAR(frac0, 6.0 / 8.0, 0.03);
}

TEST(Shuffle, SingleThreadIsStable)
{
    std::vector<double> nice = {1.0};
    Pcg32 rng(1);
    ShuffleState s({0}, nice, unitWeights(1), ShuffleMode::Insertion, &rng);
    s.step();
    EXPECT_EQ(s.order(), (std::vector<ThreadId>{0}));
}

// ---------------------------------------------------------------------------
// ThreadBankMonitor
// ---------------------------------------------------------------------------

namespace {

mem::Request
readReq(ThreadId t, BankId bank, RowId row, Cycle arrived,
        std::uint64_t seq)
{
    mem::Request r;
    r.thread = t;
    r.bank = bank;
    r.row = row;
    r.arrivedAt = arrived;
    r.seq = seq;
    r.channel = 0;
    return r;
}

} // namespace

TEST(Monitor, ShadowRowTracksInherentLocality)
{
    ThreadBankMonitor mon;
    mon.configure(2, 4);
    // Thread 0 alternates rows in bank 0 (0% locality); thread 1 streams
    // the same row in bank 1 (100% after the first access).
    std::uint64_t seq = 0;
    for (int i = 0; i < 10; ++i) {
        mon.onArrival(readReq(0, 0, i % 2, i, seq++), i);
        mon.onArrival(readReq(1, 1, 7, i, seq++), i);
    }
    auto s = mon.snapshot(10);
    EXPECT_NEAR(s.rbl[0], 0.0, 1e-9);
    EXPECT_NEAR(s.rbl[1], 0.9, 1e-9); // 9 hits of 10 accesses
}

TEST(Monitor, BlpIntegratesBanksOverTime)
{
    ThreadBankMonitor mon;
    mon.configure(1, 4);
    // Two requests in two banks outstanding for 100 cycles, then one for
    // another 100: time-average BLP = (2*100 + 1*100) / 200 = 1.5.
    mon.onArrival(readReq(0, 0, 1, 0, 1), 0);
    mon.onArrival(readReq(0, 1, 1, 0, 2), 0);
    mon.onDepart(readReq(0, 1, 1, 0, 2), 100);
    mon.onDepart(readReq(0, 0, 1, 0, 1), 200);
    auto s = mon.snapshot(200);
    EXPECT_NEAR(s.blp[0], 1.5, 1e-9);
}

TEST(Monitor, BlpIgnoresIdleTime)
{
    ThreadBankMonitor mon;
    mon.configure(1, 4);
    mon.onArrival(readReq(0, 0, 1, 0, 1), 0);
    mon.onDepart(readReq(0, 0, 1, 0, 1), 50);
    // 950 idle cycles follow; average BLP over busy time stays 1.
    auto s = mon.snapshot(1000);
    EXPECT_NEAR(s.blp[0], 1.0, 1e-9);
}

TEST(Monitor, ServiceCyclesAccumulateAndReset)
{
    ThreadBankMonitor mon;
    mon.configure(2, 4);
    mon.addService(0, 75);
    mon.addService(0, 50);
    mon.addService(1, 10);
    auto s = mon.snapshot(100);
    EXPECT_EQ(s.serviceCycles[0], 125u);
    EXPECT_EQ(s.serviceCycles[1], 10u);
    mon.reset(100);
    s = mon.snapshot(100);
    EXPECT_EQ(s.serviceCycles[0], 0u);
}

TEST(Monitor, WritesAreInvisible)
{
    ThreadBankMonitor mon;
    mon.configure(1, 4);
    mem::Request w = readReq(0, 0, 3, 0, 1);
    w.isWrite = true;
    mon.onArrival(w, 0);
    auto s = mon.snapshot(10);
    EXPECT_EQ(s.accesses[0], 0u);
    EXPECT_EQ(mon.outstanding(0), 0);
}

TEST(Monitor, LoadCountersTrackPerBankOccupancy)
{
    ThreadBankMonitor mon;
    mon.configure(1, 4);
    mon.onArrival(readReq(0, 2, 1, 0, 1), 0);
    mon.onArrival(readReq(0, 2, 2, 0, 2), 0);
    mon.onArrival(readReq(0, 3, 1, 0, 3), 0);
    EXPECT_EQ(mon.load(0, 2), 2);
    EXPECT_EQ(mon.load(0, 3), 1);
    EXPECT_EQ(mon.load(0, 0), 0);
    EXPECT_EQ(mon.outstanding(0), 3);
    mon.onDepart(readReq(0, 2, 1, 0, 1), 10);
    EXPECT_EQ(mon.load(0, 2), 1);
}

// ---------------------------------------------------------------------------
// Integrated Tcm policy
// ---------------------------------------------------------------------------

namespace {

/** Drive a bare Tcm policy with synthetic arrivals/commands. */
struct TcmRig
{
    TcmParams params;
    std::unique_ptr<Tcm> tcm;
    std::vector<mem::CoreCounters> counters;

    explicit TcmRig(int threads, TcmParams p = TcmParams{},
                    std::vector<int> weights = {})
    {
        params = p;
        tcm = std::make_unique<Tcm>(params, 1);
        counters.resize(threads);
        tcm->configure({.numThreads = threads,
                        .numChannels = 1,
                        .banksPerChannel = 4,
                        .coreCounters = &counters,
                        .weights = std::move(weights)});
    }
};

} // namespace

TEST(TcmPolicy, FirstQuantumIsAllBandwidthCluster)
{
    TcmRig rig(4);
    rig.tcm->tick(0);
    EXPECT_TRUE(rig.tcm->latencyCluster().empty());
    EXPECT_EQ(rig.tcm->bandwidthCluster().size(), 4u);
}

TEST(TcmPolicy, LightThreadsClusterAsLatencySensitive)
{
    TcmParams p;
    p.quantum = 1000;
    // The default 4/N numerator targets ~24 threads; with 3 threads pin
    // the fraction explicitly so the budget is meaningful.
    p.clusterThreshOverride = 0.3;
    TcmRig rig(3, p);
    rig.tcm->tick(0);

    // Thread 0: light (few misses, little service). Threads 1-2: heavy.
    rig.counters[0].instructions = 100'000;
    rig.counters[0].readMisses = 10;
    rig.counters[1].instructions = 10'000;
    rig.counters[1].readMisses = 1'000;
    rig.counters[2].instructions = 10'000;
    rig.counters[2].readMisses = 900;

    mem::Request r;
    r.channel = 0;
    r.thread = 0;
    rig.tcm->onCommand(r, dram::CommandKind::Read, 500, 50);
    r.thread = 1;
    rig.tcm->onCommand(r, dram::CommandKind::Read, 500, 600);
    r.thread = 2;
    rig.tcm->onCommand(r, dram::CommandKind::Read, 500, 600);

    rig.tcm->tick(1000); // quantum boundary
    ASSERT_EQ(rig.tcm->latencyCluster().size(), 1u);
    EXPECT_EQ(rig.tcm->latencyCluster()[0], 0);
    EXPECT_EQ(rig.tcm->bandwidthCluster().size(), 2u);
    // Latency cluster strictly outranks the bandwidth cluster.
    EXPECT_GT(rig.tcm->rankOf(0, 0), rig.tcm->rankOf(0, 1));
    EXPECT_GT(rig.tcm->rankOf(0, 0), rig.tcm->rankOf(0, 2));
}

TEST(TcmPolicy, ShuffleChangesRanksWithinQuantum)
{
    TcmParams p;
    p.quantum = 100'000;
    p.shuffleInterval = 100;
    p.shuffleMode = ShuffleMode::Random;
    TcmRig rig(4, p);
    rig.tcm->tick(0);

    std::vector<int> first;
    for (ThreadId t = 0; t < 4; ++t)
        first.push_back(rig.tcm->rankOf(0, t));
    bool changed = false;
    for (Cycle now = 1; now < 2000 && !changed; ++now) {
        rig.tcm->tick(now);
        for (ThreadId t = 0; t < 4; ++t)
            changed |= rig.tcm->rankOf(0, t) != first[t];
    }
    EXPECT_TRUE(changed);
}

TEST(TcmPolicy, RanksArePermutationOfAllThreads)
{
    TcmParams p;
    p.quantum = 500;
    TcmRig rig(6, p);
    for (Cycle now = 0; now < 5000; now += 100) {
        rig.tcm->tick(now);
        std::set<int> ranks;
        for (ThreadId t = 0; t < 6; ++t)
            ranks.insert(rig.tcm->rankOf(0, t));
        EXPECT_EQ(ranks.size(), 6u) << "at cycle " << now;
    }
}

TEST(TcmPolicy, ForcedRandomModeNeverUsesInsertion)
{
    TcmParams p;
    p.quantum = 1000;
    p.shuffleMode = ShuffleMode::Random;
    TcmRig rig(4, p);
    for (Cycle now = 0; now <= 5000; now += 500)
        rig.tcm->tick(now);
    EXPECT_EQ(rig.tcm->activeShuffleMode(), ShuffleMode::Random);
}

TEST(TcmPolicy, ShuffleAlgoThreshOfOneForcesRandom)
{
    // Even with wildly heterogeneous BLP/RBL, threshold 1 means the
    // spread can never exceed it -> random shuffling (paper Section 3.3).
    TcmParams p;
    p.quantum = 1000;
    p.shuffleAlgoThresh = 1.0;
    TcmRig rig(2, p);
    rig.tcm->tick(0);

    mem::Request a = {};
    a.thread = 0;
    a.channel = 0;
    a.bank = 0;
    // Build strong BLP/RBL contrast via arrivals.
    for (int i = 0; i < 50; ++i) {
        a.row = i;
        a.seq = i;
        rig.tcm->onArrival(a, 10 + i);
        rig.tcm->onDepart(a, 12 + i);
    }
    rig.tcm->tick(1000);
    EXPECT_EQ(rig.tcm->activeShuffleMode(), ShuffleMode::Random);
}

TEST(Shuffle, UpdateNicenessPreservesRotationPhase)
{
    std::vector<double> nice = {0, 1, 2, 3};
    Pcg32 rng(1);
    ShuffleState s({0, 1, 2, 3}, nice, unitWeights(4),
                   ShuffleMode::Insertion, &rng);
    s.step();
    s.step();
    auto mid = s.order();
    // Same relative niceness ordering -> the state is untouched and the
    // next step continues the rotation instead of restarting.
    s.updateNiceness({0, 10, 20, 30});
    EXPECT_EQ(s.order(), mid);
    s.step();
    EXPECT_NE(s.order(), mid);
}

TEST(TcmPolicy, ShufflePhaseSurvivesQuantumWithStableCluster)
{
    TcmParams p;
    p.quantum = 2000;
    p.shuffleInterval = 500;
    p.shuffleMode = ShuffleMode::Insertion;
    TcmRig rig(4, p);

    // Drive identical per-quantum behaviour so clustering never changes
    // (all threads stay in the bandwidth cluster: no core counters set,
    // zero bandwidth usage).
    std::vector<std::vector<int>> rankHistory;
    for (Cycle now = 0; now <= 20'000; now += 100) {
        rig.tcm->tick(now);
        std::vector<int> ranks;
        for (ThreadId t = 0; t < 4; ++t)
            ranks.push_back(rig.tcm->rankOf(0, t));
        rankHistory.push_back(ranks);
    }
    // If the rotation restarted at every quantum, the rank pattern would
    // repeat with period exactly one quantum (20 samples). Continuity
    // makes the sequence drift across quanta: compare the first sample
    // of consecutive quanta and require at least one difference.
    bool drifted = false;
    for (std::size_t q = 1; q * 20 < rankHistory.size(); ++q)
        drifted |= rankHistory[q * 20] != rankHistory[0];
    EXPECT_TRUE(drifted);
}

TEST(TcmPolicy, WeightScalesMpkiWithinLatencyCluster)
{
    // Two light threads with identical behaviour; the weighted one has a
    // smaller scaled MPKI and must rank higher inside the latency
    // cluster (Section 3.6).
    TcmParams p;
    p.quantum = 1000;
    p.clusterThreshOverride = 1.0; // everyone fits once bandwidth exists
    TcmRig rig(2, p, /*weights=*/{1, 8});
    rig.tcm->tick(0);

    rig.counters[0].instructions = 100'000;
    rig.counters[0].readMisses = 100;
    rig.counters[1].instructions = 100'000;
    rig.counters[1].readMisses = 100;
    mem::Request r = {};
    r.channel = 0;
    for (ThreadId t = 0; t < 2; ++t) {
        r.thread = t;
        rig.tcm->onCommand(r, dram::CommandKind::Read, 10, 50);
    }
    rig.tcm->tick(1000);
    ASSERT_EQ(rig.tcm->latencyCluster().size(), 2u);
    EXPECT_GT(rig.tcm->rankOf(0, 1), rig.tcm->rankOf(0, 0));
}

TEST(TcmPolicy, ClusterThreshOverrideControlsClusterSize)
{
    // With override 1.0 every thread fits the latency cluster once any
    // bandwidth was used.
    TcmParams p;
    p.quantum = 1000;
    p.clusterThreshOverride = 1.0;
    TcmRig rig(3, p);
    rig.tcm->tick(0);
    mem::Request r = {};
    r.channel = 0;
    for (ThreadId t = 0; t < 3; ++t) {
        r.thread = t;
        rig.tcm->onCommand(r, dram::CommandKind::Read, 10, 50);
    }
    rig.tcm->tick(1000);
    EXPECT_EQ(rig.tcm->latencyCluster().size(), 3u);
}
