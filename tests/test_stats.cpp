/**
 * @file
 * Unit tests for the statistics subsystem: histogram math, the
 * controller latency tracker, and the per-run statistics a simulator
 * exposes (latency trackers, controller stats, command counts).
 */

#include <string>

#include <gtest/gtest.h>

#include "mem/latency_tracker.hpp"
#include "sim/simulator.hpp"
#include "stats/counters.hpp"
#include "stats/histogram.hpp"
#include "workload/benchmark_table.hpp"
#include "workload/mixes.hpp"

using namespace tcm;
using tcm::stats::Histogram;

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, EmptyIsZero)
{
    Histogram h({1.0, 2.0});
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.percentile(0.5), 0.0);
}

TEST(HistogramTest, MeanMinMaxExact)
{
    Histogram h({10.0, 100.0, 1000.0});
    for (double v : {5.0, 50.0, 500.0, 5000.0})
        h.add(v);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.mean(), (5.0 + 50.0 + 500.0 + 5000.0) / 4.0);
    EXPECT_DOUBLE_EQ(h.min(), 5.0);
    EXPECT_DOUBLE_EQ(h.max(), 5000.0);
}

TEST(HistogramTest, BucketsFillCorrectly)
{
    Histogram h({10.0, 100.0});
    h.add(10.0);  // at the bound -> first bucket
    h.add(10.1);  // second bucket
    h.add(99.0);  // second bucket
    h.add(101.0); // overflow
    ASSERT_EQ(h.buckets().size(), 3u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 2u);
    EXPECT_EQ(h.buckets()[2], 1u);
}

TEST(HistogramTest, PercentileMonotonicAndBounded)
{
    Histogram h = Histogram::exponential(10.0, 2.0, 12);
    Pcg32 rng(3);
    for (int i = 0; i < 20'000; ++i)
        h.add(10.0 + rng.nextBelow(10'000));
    double last = 0.0;
    for (double p : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
        double v = h.percentile(p);
        EXPECT_GE(v, last);
        last = v;
    }
    EXPECT_LE(h.percentile(1.0), h.max());
    EXPECT_GE(h.percentile(0.0), 0.0);
}

TEST(HistogramTest, PercentileApproximatesUniform)
{
    Histogram h({100, 200, 300, 400, 500, 600, 700, 800, 900, 1000});
    for (int v = 1; v <= 1000; ++v)
        h.add(static_cast<double>(v));
    EXPECT_NEAR(h.percentile(0.5), 500.0, 60.0);
    EXPECT_NEAR(h.percentile(0.9), 900.0, 60.0);
}

TEST(HistogramTest, MergeEqualsCombinedStream)
{
    Histogram a = Histogram::exponential(10, 2, 8);
    Histogram b = Histogram::exponential(10, 2, 8);
    Histogram both = Histogram::exponential(10, 2, 8);
    Pcg32 rng(9);
    for (int i = 0; i < 5000; ++i) {
        double v = 1.0 + rng.nextBelow(3000);
        (i % 2 ? a : b).add(v);
        both.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_DOUBLE_EQ(a.mean(), both.mean());
    EXPECT_DOUBLE_EQ(a.max(), both.max());
    EXPECT_DOUBLE_EQ(a.percentile(0.9), both.percentile(0.9));
}

// The documented percentile() edge-case contract (histogram.hpp):
// empty -> 0, p clamped to [0,1], p=0 -> min(), p=1 -> max(), overflow
// bucket -> observed max.

TEST(HistogramTest, PercentileEmptyReturnsZeroForAnyP)
{
    Histogram h = Histogram::exponential(1.0, 2.0, 8);
    for (double p : {-1.0, 0.0, 0.5, 1.0, 7.0})
        EXPECT_EQ(h.percentile(p), 0.0) << p;
}

TEST(HistogramTest, PercentileClampsOutOfRangeP)
{
    Histogram h({10.0, 100.0});
    h.add(3.0);
    h.add(42.0);
    EXPECT_DOUBLE_EQ(h.percentile(-0.5), h.percentile(0.0));
    EXPECT_DOUBLE_EQ(h.percentile(2.0), h.percentile(1.0));
}

TEST(HistogramTest, PercentileExtremesReportMinAndMax)
{
    Histogram h = Histogram::exponential(10.0, 2.0, 10);
    Pcg32 rng(7);
    for (int i = 0; i < 1000; ++i)
        h.add(1.0 + rng.nextBelow(5000));
    EXPECT_DOUBLE_EQ(h.percentile(0.0), h.min());
    EXPECT_DOUBLE_EQ(h.percentile(1.0), h.max());
}

TEST(HistogramTest, PercentileOverflowBucketReportsObservedMax)
{
    Histogram h({10.0}); // one bound: everything above 10 overflows
    h.add(5.0);
    h.add(250.0);
    h.add(9000.0);
    // p50 onward land in the overflow bucket, which has no upper bound
    // to interpolate toward; the contract says report max().
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 9000.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 9000.0);
}

TEST(HistogramTest, PercentileClampedToObservedRange)
{
    // A single value in a wide bucket: interpolation would overshoot,
    // the min/max clamp keeps every percentile at the value itself.
    Histogram h({1000.0, 2000.0});
    h.add(1500.0);
    for (double p : {0.0, 0.25, 0.5, 0.75, 1.0})
        EXPECT_DOUBLE_EQ(h.percentile(p), 1500.0) << p;
}

TEST(HistogramTest, ResetClears)
{
    Histogram h({10.0});
    h.add(5.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0.0);
}

// ---------------------------------------------------------------------------
// LatencyTracker
// ---------------------------------------------------------------------------

TEST(LatencyTracker, TracksPerThreadAndAggregate)
{
    mem::LatencyTracker lt;
    lt.record(0, 200);
    lt.record(0, 400);
    lt.record(2, 1000);
    EXPECT_EQ(lt.histogram().count(), 3u);
    EXPECT_DOUBLE_EQ(lt.threadStats(0).mean(), 300.0);
    EXPECT_EQ(lt.threadStats(1).count(), 0u);
    EXPECT_DOUBLE_EQ(lt.threadStats(2).max(), 1000.0);
    EXPECT_EQ(lt.threadHistogram(2).count(), 1u);
}

TEST(LatencyTracker, UnknownThreadIsEmptyNotCrash)
{
    mem::LatencyTracker lt;
    EXPECT_EQ(lt.threadStats(5).count(), 0u);
    EXPECT_EQ(lt.threadHistogram(5).count(), 0u);
}

TEST(LatencyTracker, ResetClearsEverything)
{
    mem::LatencyTracker lt;
    lt.record(1, 500);
    lt.reset();
    EXPECT_EQ(lt.histogram().count(), 0u);
    EXPECT_EQ(lt.threadStats(1).count(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: a simulator's latencies and counts
// ---------------------------------------------------------------------------

TEST(RunStats, UncontendedLatencyNearDatasheet)
{
    sim::SystemConfig cfg;
    cfg.numCores = 1;
    std::vector<workload::ThreadProfile> mix = {
        workload::benchmarkProfile("libquantum")};
    sim::Simulator sim(cfg, mix, sched::SchedulerSpec::frfcfs(), 3);
    sim.run(20'000, 100'000);

    // Row-hit-dominated single thread: mean latency should sit between
    // the uncontended row-hit (~200) and a loaded queue bound.
    stats::Histogram merged = sim.latency(0).threadHistogram(0);
    for (ChannelId ch = 1; ch < cfg.numChannels; ++ch)
        merged.merge(sim.latency(ch).threadHistogram(0));
    ASSERT_GT(merged.count(), 100u);
    EXPECT_GT(merged.percentile(0.5), 150.0);
    EXPECT_LT(merged.percentile(0.5), 2000.0);
}

TEST(RunStats, ReadCountsAgreeAcrossTrackerStatsAndCommands)
{
    sim::SystemConfig cfg;
    cfg.numCores = 4;
    auto mix = workload::randomMix(4, 1.0, 5);
    sim::Simulator sim(cfg, mix, sched::SchedulerSpec::tcmSpec(), 5);
    sim.run(20'000, 100'000);

    for (ThreadId t = 0; t < sim.numThreads(); ++t)
        EXPECT_GT(sim.measuredIpc(t), 0.0) << "thread " << t;
    for (ChannelId ch = 0; ch < cfg.numChannels; ++ch) {
        const mem::ControllerStats &s = sim.controllerStats(ch);
        std::uint64_t threadReads = 0;
        for (ThreadId t = 0; t < sim.numThreads(); ++t) {
            const stats::Histogram &h = sim.latency(ch).threadHistogram(t);
            threadReads += h.count();
            EXPECT_LE(h.percentile(0.50), h.percentile(0.99) + 1e-9);
            EXPECT_LE(h.percentile(0.99), h.max() + 1e-9);
        }
        // Every read the controller serviced was timed, and counted as
        // a read command, exactly once.
        EXPECT_GT(s.readsServiced, 0u) << "channel " << ch;
        EXPECT_EQ(threadReads, s.readsServiced) << "channel " << ch;
        EXPECT_EQ(sim.commandCounts(ch).reads, s.readsServiced)
            << "channel " << ch;
    }
}

TEST(RunStats, StarvedThreadShowsTailBlowup)
{
    // Under a strict fixed ranking, the deprioritized heavy thread's p99
    // latency must far exceed the favored thread's.
    sim::SystemConfig cfg;
    cfg.numCores = 2;
    cfg.numChannels = 1;
    std::vector<workload::ThreadProfile> mix = {
        workload::benchmarkProfile("lbm"),
        workload::benchmarkProfile("lbm")};
    sim::Simulator sim(cfg, mix, sched::SchedulerSpec::fixedRank({0, 1}),
                       5);
    sim.run(20'000, 150'000);
    const mem::LatencyTracker &lat = sim.latency(0);
    EXPECT_GT(lat.threadHistogram(0).percentile(0.99),
              2.0 * lat.threadHistogram(1).percentile(0.99));
}

// ---------------------------------------------------------------------------
// NamedCounters
// ---------------------------------------------------------------------------

TEST(NamedCounters, BumpTotalAndSnapshots)
{
    stats::NamedCounters c({"alpha", "beta", "gamma"});
    EXPECT_EQ(c.size(), 3u);
    EXPECT_EQ(c.total(), 0u);
    EXPECT_TRUE(c.nonZero().empty());

    c.bump(1);
    c.bump(2, 5);
    EXPECT_EQ(c.count(0), 0u);
    EXPECT_EQ(c.count(1), 1u);
    EXPECT_EQ(c.count(2), 5u);
    EXPECT_EQ(c.total(), 6u);

    auto snap = c.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].first, "alpha");
    EXPECT_EQ(snap[0].second, 0u);
    EXPECT_EQ(snap[2].second, 5u);

    auto nz = c.nonZero();
    ASSERT_EQ(nz.size(), 2u);
    EXPECT_EQ(nz[0].first, "beta");
    EXPECT_EQ(nz[1].first, "gamma");

    c.reset();
    EXPECT_EQ(c.total(), 0u);
    EXPECT_EQ(c.count(2), 0u);
}

// ---------------------------------------------------------------------------
// Protocol audit of a run
// ---------------------------------------------------------------------------

TEST(RunStats, ProtocolCheckerAuditsWhenEnabled)
{
    sim::SystemConfig cfg;
    cfg.numCores = 2;
    cfg.numChannels = 1;
    cfg.protocolCheck = true;
    auto mix = workload::randomMix(cfg.numCores, 1.0, 21);
    sim::Simulator sim(cfg, mix, sched::SchedulerSpec::frfcfs(), 21);
    sim.run(10'000, 40'000);
    const dram::ProtocolChecker *checker = sim.protocolChecker();
    ASSERT_NE(checker, nullptr);
    EXPECT_GT(checker->eventsAudited(), 0u);
    EXPECT_EQ(checker->violationCount(), 0u);
}

TEST(RunStats, ProtocolCheckerAbsentByDefault)
{
    sim::SystemConfig cfg;
    cfg.numCores = 2;
    cfg.numChannels = 1;
    auto mix = workload::randomMix(cfg.numCores, 1.0, 21);
    sim::Simulator sim(cfg, mix, sched::SchedulerSpec::frfcfs(), 21);
    sim.run(10'000, 20'000);
    EXPECT_EQ(sim.protocolChecker(), nullptr);
}
