/**
 * @file
 * Unit tests for scheduler helpers, simple policies and the factory.
 */

#include <stdexcept>

#include <gtest/gtest.h>

#include "sched/factory.hpp"
#include "sched/fcfs.hpp"
#include "sched/fixed_rank.hpp"
#include "sched/frfcfs.hpp"
#include "sched/scheduler.hpp"

using namespace tcm;
using namespace tcm::sched;

// ---------------------------------------------------------------------------
// ascendingPositions
// ---------------------------------------------------------------------------

TEST(Helpers, AscendingPositionsSimple)
{
    EXPECT_EQ(ascendingPositions({3.0, 1.0, 2.0}),
              (std::vector<int>{2, 0, 1}));
}

TEST(Helpers, AscendingPositionsTieBreaksByIndex)
{
    EXPECT_EQ(ascendingPositions({1.0, 1.0, 1.0}),
              (std::vector<int>{0, 1, 2}));
}

TEST(Helpers, AscendingPositionsEmpty)
{
    EXPECT_TRUE(ascendingPositions({}).empty());
}

TEST(Helpers, RanksFromOrder)
{
    // Order lists lowest priority first.
    auto ranks = ranksFromOrder({2, 0, 1}, 3, 10);
    EXPECT_EQ(ranks[2], 10);
    EXPECT_EQ(ranks[0], 11);
    EXPECT_EQ(ranks[1], 12);
}

// ---------------------------------------------------------------------------
// Simple policies
// ---------------------------------------------------------------------------

TEST(SimplePolicies, FrFcfsDefaults)
{
    FrFcfs s;
    s.configure({.numThreads = 4, .numChannels = 2, .banksPerChannel = 4});
    EXPECT_STREQ(s.name(), "FR-FCFS");
    EXPECT_EQ(s.rankOf(0, 0), s.rankOf(1, 3));
    EXPECT_EQ(s.agingThreshold(), kCycleNever);
    EXPECT_TRUE(s.useRowHit());
    EXPECT_FALSE(s.rowHitAboveRank());
}

TEST(SimplePolicies, FcfsDisablesRowHit)
{
    Fcfs s;
    EXPECT_FALSE(s.useRowHit());
}

TEST(SimplePolicies, FixedRankReturnsConfiguredRanks)
{
    FixedRank s({5, 1, 9});
    s.configure({.numThreads = 3, .numChannels = 1, .banksPerChannel = 4});
    EXPECT_EQ(s.rankOf(0, 0), 5);
    EXPECT_EQ(s.rankOf(0, 1), 1);
    EXPECT_EQ(s.rankOf(0, 2), 9);
}

TEST(SimplePolicies, FixedRankRejectsTooFewRanksAtConfigure)
{
    FixedRank s({5, 1});
    EXPECT_THROW(
        s.configure({.numThreads = 3, .numChannels = 1, .banksPerChannel = 4}),
        std::out_of_range);
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

TEST(Factory, BuildsEveryAlgorithm)
{
    for (Algo algo : {Algo::FrFcfs, Algo::Fcfs, Algo::Stfm, Algo::ParBs,
                      Algo::Atlas, Algo::Tcm}) {
        SchedulerSpec spec;
        spec.algo = algo;
        auto policy = makeScheduler(spec, 1);
        ASSERT_NE(policy, nullptr);
        EXPECT_STREQ(policy->name(), algoName(algo));
    }
}

TEST(Factory, FixedRankCarriesRanks)
{
    auto policy = makeScheduler(SchedulerSpec::fixedRank({1, 0}), 1);
    policy->configure(
        {.numThreads = 2, .numChannels = 1, .banksPerChannel = 4});
    EXPECT_GT(policy->rankOf(0, 0), policy->rankOf(0, 1));
}

TEST(Factory, ScaleToRunAdjustsQuanta)
{
    SchedulerSpec spec = SchedulerSpec::tcmSpec();
    spec.scaleToRun(100'000'000);
    EXPECT_EQ(spec.tcm.quantum, 1'000'000u);   // the paper's values at
    EXPECT_EQ(spec.atlas.quantum, 10'000'000u); // the paper's run length

    spec.scaleToRun(300'000);
    EXPECT_EQ(spec.tcm.quantum, 50'000u); // shuffle-rotation floor
    EXPECT_EQ(spec.atlas.quantum, 30'000u);
    // The aging threshold is an absolute timeout: never scaled.
    EXPECT_EQ(spec.atlas.agingThreshold, 100'000u);

    // A value the caller set is kept.
    SchedulerSpec set = SchedulerSpec::atlasSpec();
    set.atlas.quantum = 15'000;
    set.scaleToRun(300'000);
    EXPECT_EQ(set.atlas.quantum, 15'000u);
}

TEST(Factory, DefaultsMatchPaperSectionSix)
{
    SchedulerSpec spec;
    EXPECT_DOUBLE_EQ(spec.tcm.clusterThreshNumerator, 4.0);
    EXPECT_EQ(spec.tcm.shuffleInterval, 800u);
    EXPECT_DOUBLE_EQ(spec.tcm.shuffleAlgoThresh, 0.1);
    EXPECT_EQ(spec.parbs.batchCap, 5);
    EXPECT_DOUBLE_EQ(spec.atlas.historyWeight, 0.875);
    EXPECT_DOUBLE_EQ(spec.stfm.fairnessThreshold, 1.1);
    EXPECT_EQ(spec.stfm.intervalLength, Cycle{1} << 24);
}
