/**
 * @file
 * Unit tests for trace capture/replay and the FQM scheduler.
 */

#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "sched/fqm.hpp"
#include "sim/simulator.hpp"
#include "workload/benchmark_table.hpp"
#include "workload/trace_file.hpp"
#include "scratch.hpp"

using namespace tcm;
using namespace tcm::workload;

namespace {

std::string
tempPath(const char *name)
{
    return test::scratchPath(std::string(name) + ".trace").string();
}

} // namespace

// ---------------------------------------------------------------------------
// Trace file round trips
// ---------------------------------------------------------------------------

TEST(TraceFile, RoundTripPreservesEveryField)
{
    Geometry g;
    std::string path = tempPath("roundtrip");

    SyntheticTrace source(benchmarkProfile("lbm"), g, 7);
    std::vector<core::TraceItem> expect;
    {
        TraceWriter writer(path, g);
        for (int i = 0; i < 5000; ++i) {
            core::TraceItem item = source.next();
            expect.push_back(item);
            writer.write(item);
        }
        writer.close();
        EXPECT_EQ(writer.recordsWritten(), 5000u);
    }

    FileTrace replay(path, g);
    ASSERT_EQ(replay.size(), 5000u);
    for (const core::TraceItem &want : expect) {
        core::TraceItem got = replay.next();
        ASSERT_EQ(got.gap, want.gap);
        ASSERT_EQ(got.access.isWrite, want.access.isWrite);
        ASSERT_EQ(got.access.channel, want.access.channel);
        ASSERT_EQ(got.access.bank, want.access.bank);
        ASSERT_EQ(got.access.row, want.access.row);
        ASSERT_EQ(got.access.col, want.access.col);
    }
    std::remove(path.c_str());
}

TEST(TraceFile, ReplayWrapsAround)
{
    Geometry g;
    std::string path = tempPath("wrap");
    captureSyntheticTrace(benchmarkProfile("gcc"), g, 3, 10, path);

    FileTrace replay(path, g);
    core::TraceItem first = replay.next();
    for (int i = 0; i < 9; ++i)
        replay.next();
    core::TraceItem wrapped = replay.next();
    EXPECT_EQ(wrapped.gap, first.gap);
    EXPECT_EQ(wrapped.access.row, first.access.row);
    std::remove(path.c_str());
}

TEST(TraceFile, MissingFileThrows)
{
    Geometry g;
    EXPECT_THROW(FileTrace("/nonexistent/nope.trace", g), TraceFileError);
}

TEST(TraceFile, GarbageFileThrows)
{
    std::string path = tempPath("garbage");
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("this is not a trace", f);
        std::fclose(f);
    }
    Geometry g;
    EXPECT_THROW(FileTrace(path, g), TraceFileError);
    std::remove(path.c_str());
}

TEST(TraceFile, GeometryMismatchThrows)
{
    Geometry big;
    big.numChannels = 8;
    std::string path = tempPath("geom");
    captureSyntheticTrace(benchmarkProfile("gcc"), big, 3, 100, path);

    Geometry small; // 4 channels
    EXPECT_THROW(FileTrace(path, small), TraceFileError);
    // The capture geometry itself loads fine.
    EXPECT_NO_THROW(FileTrace(path, big));
    std::remove(path.c_str());
}

TEST(TraceFile, EmptyTraceThrows)
{
    Geometry g;
    std::string path = tempPath("empty");
    {
        TraceWriter writer(path, g);
        writer.close();
    }
    EXPECT_THROW(FileTrace(path, g), TraceFileError);
    std::remove(path.c_str());
}

TEST(TraceFile, TextDumpConvertRoundTripsBitExact)
{
    Geometry g;
    std::string bin = tempPath("text_rt_bin");
    std::string txt = tempPath("text_rt_txt") + ".txt";
    std::string bin2 = tempPath("text_rt_bin2");
    captureSyntheticTrace(benchmarkProfile("lbm"), g, 5, 2000, bin);

    dumpTraceAsText(bin, txt);
    convertTextTrace(txt, bin2);

    FileTrace a(bin, g), b(bin2, g);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        core::TraceItem x = a.next(), y = b.next();
        ASSERT_EQ(x.gap, y.gap);
        ASSERT_EQ(x.access.isWrite, y.access.isWrite);
        ASSERT_EQ(x.access.channel, y.access.channel);
        ASSERT_EQ(x.access.bank, y.access.bank);
        ASSERT_EQ(x.access.row, y.access.row);
        ASSERT_EQ(x.access.col, y.access.col);
    }
    std::remove(bin.c_str());
    std::remove(txt.c_str());
    std::remove(bin2.c_str());
}

TEST(TraceFile, ConvertRejectsMalformedText)
{
    std::string txt = tempPath("bad_txt") + ".txt";
    std::string bin = tempPath("bad_bin");
    {
        std::FILE *f = std::fopen(txt.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("# geometry: 4 4 16384 64\n", f);
        std::fputs("10 X 0 0 1 2\n", f); // bad R/W flag
        std::fclose(f);
    }
    EXPECT_THROW(convertTextTrace(txt, bin), TraceFileError);

    {
        std::FILE *f = std::fopen(txt.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("10 R 0 0 1 2\n", f); // no geometry header
        std::fclose(f);
    }
    EXPECT_THROW(convertTextTrace(txt, bin), TraceFileError);

    {
        std::FILE *f = std::fopen(txt.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("# geometry: 4 4 16384 64\n", f);
        std::fputs("10 R 9 0 1 2\n", f); // channel out of range
        std::fclose(f);
    }
    EXPECT_THROW(convertTextTrace(txt, bin), TraceFileError);

    std::remove(txt.c_str());
    std::remove(bin.c_str());
}

TEST(TraceFile, WritesToAFullDiskThrow)
{
    // /dev/full takes the open and the buffered writes and fails only
    // the flush, so a short trace or dump is lost in fclose or nowhere.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this system";
    Geometry g;
    EXPECT_THROW(captureSyntheticTrace(benchmarkProfile("mcf"), g, 1, 10,
                                       "/dev/full"),
                 TraceFileError);
    // Unclosed, the writer's destructor swallows the same failure.
    EXPECT_NO_THROW({
        TraceWriter writer("/dev/full", g);
        writer.write(core::TraceItem{});
    });

    std::string bin = tempPath("full_dump_bin");
    captureSyntheticTrace(benchmarkProfile("mcf"), g, 1, 10, bin);
    EXPECT_THROW(dumpTraceAsText(bin, "/dev/full"), TraceFileError);
    std::remove(bin.c_str());
}

// ---------------------------------------------------------------------------
// Replay through the full simulator
// ---------------------------------------------------------------------------

TEST(TraceFile, ReplayedSimulationIsDeterministic)
{
    sim::SystemConfig cfg;
    cfg.numCores = 2;
    Geometry g = cfg.geometry();
    std::string path = tempPath("simrun");
    captureSyntheticTrace(benchmarkProfile("mcf"), g, 11, 50'000, path);

    double ipc[2];
    for (int run = 0; run < 2; ++run) {
        std::vector<std::unique_ptr<core::TraceSource>> traces;
        traces.push_back(std::make_unique<FileTrace>(path, g));
        traces.push_back(std::make_unique<FileTrace>(path, g));
        sim::Simulator sim(cfg, std::move(traces),
                           sched::SchedulerSpec::tcmSpec(), 5);
        sim.run(10'000, 80'000);
        ipc[run] = sim.measuredIpc(0) + sim.measuredIpc(1);
        EXPECT_GT(sim.measuredIpc(0), 0.0);
    }
    EXPECT_DOUBLE_EQ(ipc[0], ipc[1]);
    std::remove(path.c_str());
}

TEST(TraceFile, ReplayMatchesLiveSyntheticStatistics)
{
    // A captured-and-replayed clone must show the same measured MPKI as
    // the live generator it was captured from.
    sim::SystemConfig cfg;
    cfg.numCores = 1;
    Geometry g = cfg.geometry();
    ThreadProfile p = benchmarkProfile("sphinx3");

    std::string path = tempPath("stats");
    captureSyntheticTrace(p, g, 21, 100'000, path);

    std::vector<std::unique_ptr<core::TraceSource>> traces;
    traces.push_back(std::make_unique<FileTrace>(path, g));
    sim::Simulator replaySim(cfg, std::move(traces),
                             sched::SchedulerSpec::frfcfs(), 5, true);
    replaySim.run(20'000, 150'000);
    auto b = replaySim.behavior(0);
    EXPECT_NEAR(b.mpki, p.mpki, p.mpki * 0.15);
    EXPECT_NEAR(b.rbl, p.rbl, 0.12);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// FQM
// ---------------------------------------------------------------------------

namespace {

mem::Request
fqmReq(ThreadId t, std::uint64_t seq)
{
    mem::Request r;
    r.thread = t;
    r.channel = 0;
    r.bank = 0;
    r.row = 1;
    r.seq = seq;
    return r;
}

} // namespace

TEST(FqmPolicy, LeastVirtualTimeRanksHighest)
{
    sched::FqmParams p;
    p.updatePeriod = 10;
    sched::Fqm fqm(p);
    fqm.configure({.numThreads = 3, .numChannels = 1, .banksPerChannel = 4});

    fqm.onCommand(fqmReq(0, 1), dram::CommandKind::Read, 0, 500);
    fqm.onCommand(fqmReq(1, 2), dram::CommandKind::Read, 0, 100);
    fqm.tick(10);
    EXPECT_GT(fqm.rankOf(0, 2), fqm.rankOf(0, 1)); // 2 never serviced
    EXPECT_GT(fqm.rankOf(0, 1), fqm.rankOf(0, 0));
}

TEST(FqmPolicy, WeightsScaleVirtualTime)
{
    sched::FqmParams p;
    p.updatePeriod = 10;
    sched::Fqm fqm(p);
    fqm.configure({.numThreads = 2,
                   .numChannels = 1,
                   .banksPerChannel = 4,
                   .weights = {1, 4}});
    fqm.onCommand(fqmReq(0, 1), dram::CommandKind::Read, 0, 100);
    fqm.onCommand(fqmReq(1, 2), dram::CommandKind::Read, 0, 100);
    EXPECT_DOUBLE_EQ(fqm.virtualTime(0), 100.0);
    EXPECT_DOUBLE_EQ(fqm.virtualTime(1), 25.0);
    fqm.tick(10);
    EXPECT_GT(fqm.rankOf(0, 1), fqm.rankOf(0, 0));
}

TEST(FqmPolicy, IdleThreadCatchesUp)
{
    sched::FqmParams p;
    p.updatePeriod = 10;
    sched::Fqm fqm(p);
    fqm.configure({.numThreads = 2, .numChannels = 1, .banksPerChannel = 4});

    // Thread 0 works continuously (outstanding requests present);
    // thread 1 is idle and must not fall behind the active minimum.
    fqm.onArrival(fqmReq(0, 1), 0);
    for (Cycle now = 0; now < 1000; now += 10) {
        fqm.onCommand(fqmReq(0, 1), dram::CommandKind::Read, now, 50);
        fqm.tick(now);
    }
    EXPECT_GE(fqm.virtualTime(1), fqm.virtualTime(0) - 300.0);
}

TEST(FqmPolicy, EndToEndSharesBandwidthEvenly)
{
    // Four identical heavy threads under FQM: slowdowns within ~25% of
    // each other (bandwidth fairness is FQM's whole purpose).
    sim::SystemConfig cfg;
    cfg.numCores = 4;
    cfg.numChannels = 1;
    std::vector<ThreadProfile> mix(4, benchmarkProfile("lbm"));
    sim::Simulator sim(cfg, mix, sched::SchedulerSpec::fqmSpec(), 5);
    sim.run(20'000, 150'000);
    double lo = 1e9, hi = 0.0;
    for (ThreadId t = 0; t < 4; ++t) {
        lo = std::min(lo, sim.measuredIpc(t));
        hi = std::max(hi, sim.measuredIpc(t));
    }
    EXPECT_LT(hi / lo, 1.25);
}
