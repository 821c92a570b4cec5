/**
 * @file
 * Unit tests for the baseline thread-aware schedulers: ATLAS, PAR-BS
 * and STFM — plus the factory's name registry and structured errors.
 */

#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "mem/controller.hpp"
#include "sched/atlas.hpp"
#include "sched/factory.hpp"
#include "sched/parbs.hpp"
#include "sched/stfm.hpp"
#include "sched/tournament.hpp"
#include "sim/simulator.hpp"
#include "workload/mixes.hpp"

using namespace tcm;
using namespace tcm::sched;

namespace {

mem::Request
readReq(ThreadId t, ChannelId ch, BankId bank, RowId row, Cycle arrived,
        std::uint64_t seq)
{
    mem::Request r;
    r.thread = t;
    r.channel = ch;
    r.bank = bank;
    r.row = row;
    r.arrivedAt = arrived;
    r.seq = seq;
    return r;
}

} // namespace

// ---------------------------------------------------------------------------
// ATLAS
// ---------------------------------------------------------------------------

TEST(AtlasPolicy, LeastAttainedServiceRanksHighest)
{
    AtlasParams p;
    p.quantum = 1000;
    Atlas atlas(p);
    atlas.configure({.numThreads = 3, .numChannels = 1, .banksPerChannel = 4});

    // Thread 2 consumed the most service, thread 0 the least.
    atlas.onCommand(readReq(0, 0, 0, 0, 0, 1), dram::CommandKind::Read, 10,
                    50);
    atlas.onCommand(readReq(1, 0, 0, 0, 0, 2), dram::CommandKind::Read, 10,
                    500);
    atlas.onCommand(readReq(2, 0, 0, 0, 0, 3), dram::CommandKind::Read, 10,
                    5000);
    atlas.tick(1000);
    EXPECT_GT(atlas.rankOf(0, 0), atlas.rankOf(0, 1));
    EXPECT_GT(atlas.rankOf(0, 1), atlas.rankOf(0, 2));
}

TEST(AtlasPolicy, HistoryDecaysExponentially)
{
    AtlasParams p;
    p.quantum = 1000;
    p.historyWeight = 0.875;
    Atlas atlas(p);
    atlas.configure({.numThreads = 1, .numChannels = 1, .banksPerChannel = 4});
    atlas.onCommand(readReq(0, 0, 0, 0, 0, 1), dram::CommandKind::Read, 10,
                    800);
    atlas.tick(1000);
    EXPECT_NEAR(atlas.totalAttainedService()[0], 0.125 * 800, 1e-9);
    atlas.tick(2000); // idle quantum: total decays by alpha
    EXPECT_NEAR(atlas.totalAttainedService()[0], 0.875 * 0.125 * 800, 1e-9);
}

TEST(AtlasPolicy, AgingThresholdExposedToController)
{
    AtlasParams p;
    p.agingThreshold = 12345;
    Atlas atlas(p);
    EXPECT_EQ(atlas.agingThreshold(), 12345u);
}

TEST(AtlasPolicy, WeightsScaleAttainedService)
{
    AtlasParams p;
    p.quantum = 1000;
    Atlas atlas(p);
    atlas.configure({.numThreads = 2,
                     .numChannels = 1,
                     .banksPerChannel = 4,
                     .weights = {1, 8}});
    // Equal raw service; the weighted thread appears under-served.
    atlas.onCommand(readReq(0, 0, 0, 0, 0, 1), dram::CommandKind::Read, 10,
                    800);
    atlas.onCommand(readReq(1, 0, 0, 0, 0, 2), dram::CommandKind::Read, 10,
                    800);
    atlas.tick(1000);
    EXPECT_GT(atlas.rankOf(0, 1), atlas.rankOf(0, 0));
}

TEST(AtlasPolicy, RanksAreAPermutation)
{
    AtlasParams p;
    p.quantum = 100;
    Atlas atlas(p);
    atlas.configure({.numThreads = 5, .numChannels = 1, .banksPerChannel = 4});
    for (Cycle now = 0; now < 1000; now += 100) {
        atlas.onCommand(readReq(now % 5, 0, 0, 0, now, now),
                        dram::CommandKind::Read, now, 100);
        atlas.tick(now);
    }
    std::set<int> ranks;
    for (ThreadId t = 0; t < 5; ++t)
        ranks.insert(atlas.rankOf(0, t));
    EXPECT_EQ(ranks.size(), 5u);
}

// ---------------------------------------------------------------------------
// PAR-BS (driven through a real controller for queue access)
// ---------------------------------------------------------------------------

namespace {

struct ParBsRig
{
    dram::TimingParams timing = dram::TimingParams::ddr2_800();
    ParBsParams params;
    std::unique_ptr<ParBs> parbs;
    std::unique_ptr<mem::MemoryController> mc;

    explicit ParBsRig(int threads, int batchCap = 5)
    {
        timing.refreshEnabled = false;
        params.batchCap = batchCap;
        parbs = std::make_unique<ParBs>(params);
        mc = std::make_unique<mem::MemoryController>(
            0, timing, mem::ControllerParams{}, *parbs);
        parbs->configure({.numThreads = threads,
                          .numChannels = 1,
                          .banksPerChannel = timing.banksPerChannel,
                          .readQueues = {&mc->readQueue()}});
    }

    void
    run(Cycle from, Cycle cycles)
    {
        for (Cycle now = from; now < from + cycles; ++now) {
            parbs->tick(now);
            mc->tick(now);
        }
    }
};

} // namespace

TEST(ParBsPolicy, MarksUpToBatchCapPerThreadBank)
{
    ParBsRig rig(2, /*batchCap=*/3);
    // Thread 0: 5 requests to one bank; thread 1: 2 requests.
    for (int i = 0; i < 5; ++i)
        rig.mc->submitRead(0, i, 0, 5, i, 0);
    for (int i = 0; i < 2; ++i)
        rig.mc->submitRead(1, 10 + i, 1, 3, i, 0);
    // Let arrivals land, then form the batch (no commands issued yet at
    // cycle equal to arrival delay).
    Cycle arrive = rig.timing.cpuToMcDelay;
    rig.mc->tick(arrive);
    rig.parbs->tick(arrive);
    EXPECT_EQ(rig.parbs->markedRemaining(0), 3 + 2);
}

TEST(ParBsPolicy, ShorterJobRanksHigher)
{
    ParBsRig rig(2);
    for (int i = 0; i < 5; ++i)
        rig.mc->submitRead(0, i, 0, 5, i, 0);
    rig.mc->submitRead(1, 10, 1, 3, 0, 0);
    Cycle arrive = rig.timing.cpuToMcDelay;
    rig.mc->tick(arrive);
    rig.parbs->tick(arrive);
    EXPECT_GT(rig.parbs->rankOf(0, 1), rig.parbs->rankOf(0, 0));
}

TEST(ParBsPolicy, NewBatchFormsWhenMarkedDrains)
{
    ParBsRig rig(1, /*batchCap=*/2);
    for (int i = 0; i < 2; ++i)
        rig.mc->submitRead(0, i, 0, 5, i, 0);
    rig.run(0, 600);
    // First batch (2 marked) serviced; with an empty queue no new batch.
    EXPECT_EQ(rig.parbs->markedRemaining(0), 0);
    // A new request arrives (row conflict, so it cannot be serviced in
    // the same tick it is admitted): a fresh batch forms around it.
    rig.mc->submitRead(0, 10, 0, 9, 0, 600);
    rig.run(600, 100);
    EXPECT_EQ(rig.parbs->markedRemaining(0), 1);
}

TEST(ParBsPolicy, MarkedRequestsBeatUnmarkedEvenWithRowHit)
{
    ParBsRig rig(2, /*batchCap=*/8);
    // Batch forms around thread 0's conflict-row requests.
    rig.mc->submitRead(0, 1, 0, 9, 0, 0);
    Cycle arrive = rig.timing.cpuToMcDelay;
    rig.mc->tick(arrive);
    rig.parbs->tick(arrive);
    ASSERT_EQ(rig.parbs->markedRemaining(0), 1);
    // A later row-hit request from thread 1 (unmarked) must not overtake
    // (marked tier outranks row-hit tier).
    rig.mc->submitRead(1, 2, 0, 9, 1, arrive + 1);
    rig.run(arrive, 1000);
    ASSERT_EQ(rig.mc->completions().size(), 2u);
    EXPECT_EQ(rig.mc->completions()[0].missId, 1u);
}

TEST(ParBsPolicy, RowHitAboveRankKnobSet)
{
    ParBs p{ParBsParams{}};
    EXPECT_TRUE(p.rowHitAboveRank());
}

// ---------------------------------------------------------------------------
// STFM
// ---------------------------------------------------------------------------

TEST(StfmPolicy, NoInterferenceMeansNoPrioritization)
{
    StfmParams p;
    Stfm stfm(p);
    stfm.configure({.numThreads = 2, .numChannels = 1, .banksPerChannel = 4});
    // Thread 0 accumulates stall time with no one interfering.
    stfm.onArrival(readReq(0, 0, 0, 1, 0, 1), 0);
    for (Cycle now = 0; now < 5000; ++now)
        stfm.tick(now);
    EXPECT_EQ(stfm.rankOf(0, 0), stfm.rankOf(0, 1));
    EXPECT_NEAR(stfm.slowdownEstimate(0), 1.0, 0.01);
}

TEST(StfmPolicy, VictimOfBankInterferenceGetsPrioritized)
{
    StfmParams p;
    p.updatePeriod = 100;
    Stfm stfm(p);
    stfm.configure({.numThreads = 2, .numChannels = 1, .banksPerChannel = 4});

    // Thread 1 waits on bank 0 while thread 0 hogs it.
    stfm.onArrival(readReq(1, 0, 0, 7, 0, 100), 0);
    std::uint64_t seq = 0;
    for (Cycle now = 0; now < 20'000; now += 10) {
        mem::Request hog = readReq(0, 0, 0, 5, now, ++seq);
        stfm.onArrival(hog, now);
        stfm.onCommand(hog, dram::CommandKind::Read, now, 50);
        stfm.onDepart(hog, now + 5);
        for (Cycle c = now; c < now + 10; ++c)
            stfm.tick(c);
    }
    EXPECT_GT(stfm.slowdownEstimate(1), p.fairnessThreshold);
    EXPECT_GT(stfm.rankOf(0, 1), stfm.rankOf(0, 0));
}

TEST(StfmPolicy, RowConflictInterferenceCounted)
{
    StfmParams p;
    p.updatePeriod = 100;
    Stfm stfm(p);
    stfm.configure({.numThreads = 2, .numChannels = 1, .banksPerChannel = 4});

    // Thread 1 streams row 7; a shadow hit serviced via ACT signals that
    // another thread closed its row.
    mem::Request first = readReq(1, 0, 0, 7, 0, 1);
    stfm.onArrival(first, 0);
    stfm.onDepart(first, 10);
    mem::Request second = readReq(1, 0, 0, 7, 20, 2);
    stfm.onArrival(second, 20); // shadow hit
    stfm.onCommand(second, dram::CommandKind::Activate, 30, 75);
    double before = stfm.slowdownEstimate(1);
    for (Cycle now = 0; now < 500; ++now)
        stfm.tick(now);
    // Interference was recorded, so the alone-time estimate shrank.
    EXPECT_GE(stfm.slowdownEstimate(1), before);
}

TEST(StfmPolicy, IntervalHalvesStatistics)
{
    StfmParams p;
    p.intervalLength = 1000;
    p.updatePeriod = 100;
    Stfm stfm(p);
    stfm.configure({.numThreads = 1, .numChannels = 1, .banksPerChannel = 4});
    stfm.onArrival(readReq(0, 0, 0, 1, 0, 1), 0);
    for (Cycle now = 0; now < 999; ++now)
        stfm.tick(now);
    double s_before = stfm.slowdownEstimate(0);
    stfm.tick(1000); // halving happens; slowdown ratio is preserved
    EXPECT_NEAR(stfm.slowdownEstimate(0), s_before, 0.05);
}

// ---------------------------------------------------------------------------
// Factory: the name registry and its structured errors
// ---------------------------------------------------------------------------

TEST(Factory, EveryRegisteredNameConstructs)
{
    ASSERT_FALSE(policyNames().empty());
    for (const std::string &name : policyNames()) {
        SpecLookup lookup = specByName(name);
        ASSERT_TRUE(lookup.ok) << name << ": " << lookup.error;
        auto policy = makeScheduler(lookup.spec, /*seed=*/1);
        ASSERT_NE(policy, nullptr) << name;
        EXPECT_STRNE(policy->name(), "") << name;
        std::string error;
        EXPECT_NE(makeScheduler(name, /*seed=*/1, &error), nullptr)
            << name << ": " << error;
    }
}

TEST(Factory, UnknownNameReturnsErrorListingVocabulary)
{
    SpecLookup lookup = specByName("no-such-policy");
    EXPECT_FALSE(lookup.ok);
    EXPECT_NE(lookup.error.find("no-such-policy"), std::string::npos)
        << lookup.error;
    // The structured error must name every valid choice, so a caller's
    // typo message is self-correcting.
    for (const std::string &name : policyNames())
        EXPECT_NE(lookup.error.find(name), std::string::npos)
            << "error does not list '" << name << "': " << lookup.error;

    std::string error;
    EXPECT_EQ(makeScheduler("no-such-policy", /*seed=*/1, &error), nullptr);
    EXPECT_EQ(error, lookup.error);
}

TEST(Factory, TournamentRejectsInvalidCandidates)
{
    SchedulerSpec spec = SchedulerSpec::tournamentSpec();
    spec.tournamentCandidates = {Algo::Tcm, Algo::ParBs};
    EXPECT_THROW(makeScheduler(spec, 1), std::invalid_argument);
    spec.tournamentCandidates = {Algo::Tournament};
    EXPECT_THROW(makeScheduler(spec, 1), std::invalid_argument);
    spec.tournamentCandidates.clear();
    EXPECT_THROW(makeScheduler(spec, 1), std::invalid_argument);
    spec.tournamentCandidates = {Algo::Tcm, Algo::Atlas, Algo::Bliss};
    EXPECT_NE(makeScheduler(spec, 1), nullptr);
}

TEST(TournamentPolicy, PublishesTheLiveCandidatesTable)
{
    // The controllers read only the tournament's own rank table, so it
    // must follow the live candidate's through every rank move of that
    // candidate and through every switch.
    sim::SystemConfig config;
    config.numCores = 8;
    config.numChannels = 2;
    SchedulerSpec spec = SchedulerSpec::tournamentSpec();
    spec.scaleToRun(300'000);
    sim::Simulator sim(config, workload::randomMix(8, 0.75, /*seed=*/3),
                       spec, /*seed=*/5);
    const auto &tournament =
        dynamic_cast<const Tournament &>(sim.scheduler());

    std::set<std::string> lives;
    int moves = 0;
    std::uint64_t epoch = tournament.rankEpoch();
    for (int i = 1; i <= 300; ++i) {
        sim.step(1'000);
        lives.insert(tournament.live().name());
        moves += tournament.rankEpoch() != epoch;
        epoch = tournament.rankEpoch();
        for (ChannelId ch = 0; ch < config.numChannels; ++ch)
            ASSERT_EQ(tournament.ranks(ch), tournament.live().ranks(ch))
                << "channel " << ch << " after cycle " << i * 1'000;
    }
    EXPECT_GT(lives.size(), 1u);
    EXPECT_GT(moves, 10);
}
