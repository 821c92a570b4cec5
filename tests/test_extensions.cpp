/**
 * @file
 * Tests for the library extensions: the Table 2 hardware-cost model and
 * barrier-coupled multithreaded workloads (paper Section 3.7).
 */

#include <memory>

#include <gtest/gtest.h>

#include "sched/tcm/hw_cost.hpp"
#include "sim/simulator.hpp"
#include "workload/benchmark_table.hpp"
#include "workload/multithreaded.hpp"

using namespace tcm;

// ---------------------------------------------------------------------------
// Hardware cost model (Table 2)
// ---------------------------------------------------------------------------

TEST(HwCost, MatchesTableTwoExactly)
{
    sched::HwCostConfig cfg; // 24 threads, 4 banks baseline
    sched::HwCost cost = sched::monitoringCost(cfg);
    EXPECT_EQ(cost.mpkiCounters, 240u);
    EXPECT_EQ(cost.loadCounters, 576u);
    EXPECT_EQ(cost.blpCounters, 48u);
    EXPECT_EQ(cost.blpAverage, 48u);
    EXPECT_EQ(cost.shadowRowIndices, 1344u);
    EXPECT_EQ(cost.shadowHitCounters, 1536u);
    EXPECT_EQ(cost.total(), 3792u);
    EXPECT_LT(cost.total(), 4096u);        // "< 4 Kbits"
    EXPECT_LT(cost.totalRandomShuffleOnly(), 512u); // "< 0.5 Kbits"
}

TEST(HwCost, ScalesWithThreadsAndBanks)
{
    sched::HwCostConfig small;
    small.numThreads = 8;
    sched::HwCostConfig big;
    big.numThreads = 32;
    big.numBanks = 8;
    EXPECT_LT(sched::monitoringCost(small).total(),
              sched::monitoringCost(big).total());
    // Thread-linear structures scale exactly linearly.
    EXPECT_EQ(sched::monitoringCost(small).mpkiCounters * 4,
              sched::monitoringCost(big).mpkiCounters);
}

// ---------------------------------------------------------------------------
// BarrierGroup semantics
// ---------------------------------------------------------------------------

TEST(Barrier, PhaseReleasesOnlyWhenAllArrive)
{
    workload::BarrierGroup g(3, 1000);
    EXPECT_TRUE(g.phaseReleased(0));
    EXPECT_FALSE(g.phaseReleased(1));
    g.memberReached(0, 1);
    g.memberReached(1, 1);
    EXPECT_FALSE(g.phaseReleased(1));
    EXPECT_EQ(g.phasesCompleted(), 0u);
    g.memberReached(2, 1);
    EXPECT_TRUE(g.phaseReleased(1));
    EXPECT_EQ(g.phasesCompleted(), 1u);
}

TEST(Barrier, ReachedIsMonotonic)
{
    workload::BarrierGroup g(2, 10);
    g.memberReached(0, 5);
    g.memberReached(0, 3); // stale report must not regress
    g.memberReached(1, 5);
    EXPECT_EQ(g.phasesCompleted(), 5u);
}

// ---------------------------------------------------------------------------
// BarrierCoupledTrace
// ---------------------------------------------------------------------------

TEST(Barrier, LoneEarlyThreadSpins)
{
    workload::Geometry geom;
    workload::BarrierGroup group(2, 500);
    workload::ThreadProfile p = workload::benchmarkProfile("gcc");
    workload::BarrierCoupledTrace fast(p, geom, 1, &group, 0);

    // Pull far more than one phase of items from member 0 only; member 1
    // never arrives, so member 0 must be spinning, not progressing.
    for (int i = 0; i < 5000; ++i)
        fast.next();
    EXPECT_EQ(group.phasesCompleted(), 0u);
    EXPECT_GT(fast.spinReads(), 0u);
}

TEST(Barrier, GroupProgressesTogether)
{
    workload::Geometry geom;
    workload::BarrierGroup group(2, 500);
    workload::ThreadProfile p = workload::benchmarkProfile("gcc");
    workload::BarrierCoupledTrace a(p, geom, 1, &group, 0);
    workload::BarrierCoupledTrace b(p, geom, 2, &group, 1);

    // Interleave pulls: both threads advance through many phases.
    for (int i = 0; i < 20'000; ++i) {
        a.next();
        b.next();
    }
    EXPECT_GT(group.phasesCompleted(), 5u);
}

TEST(Barrier, EndToEndCriticalityWeightHelps)
{
    // The full Section 3.7 story: a 4-thread app with one heavy thread,
    // against a heavy background; boosting the critical thread's weight
    // under TCM must not reduce (and should raise) the app's phase rate.
    sim::SystemConfig cfg;
    cfg.numCores = 8;

    auto run = [&](int weight) {
        workload::BarrierGroup group(4, 2000);
        workload::Geometry geom = cfg.geometry();
        std::vector<std::unique_ptr<core::TraceSource>> traces;
        std::vector<int> weights;
        for (int m = 0; m < 4; ++m) {
            workload::ThreadProfile p =
                m == 0 ? workload::benchmarkProfile("GemsFDTD")
                       : workload::benchmarkProfile("gobmk");
            traces.push_back(
                std::make_unique<workload::BarrierCoupledTrace>(
                    p, geom, 10 + m, &group, m));
            weights.push_back(m == 0 ? weight : 1);
        }
        for (int b = 0; b < 4; ++b) {
            traces.push_back(std::make_unique<workload::SyntheticTrace>(
                workload::benchmarkProfile("lbm"), geom, 50 + b));
            weights.push_back(1);
        }
        sched::SchedulerSpec spec = sched::SchedulerSpec::tcmSpec();
        spec.scaleToRun(200'000);
        sim::Simulator sim(cfg, std::move(traces), spec, 9, false, weights);
        sim.run(0, 200'000);
        return group.phasesCompleted();
    };

    std::uint64_t base = run(1);
    std::uint64_t boosted = run(8);
    EXPECT_GT(base, 0u);
    EXPECT_GE(boosted, base);
}
