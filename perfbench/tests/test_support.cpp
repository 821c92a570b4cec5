// Tests of the benchmark's own pieces: each output check must reject a
// tampered input, the tail helper must pick the highest percentile with
// ten samples beyond it, and the fleet manifest must give every job a
// distinct (scheduler, seed) pair.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "bench.hpp"
#include "common/json.hpp"
#include "sched/factory.hpp"

namespace perfbench {
namespace {

double
flipLowBit(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bits ^= 1;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

JobOutput
sampleOutput()
{
    return {{0.51, 0.27, 1.125, 0.0625}, 3.25, 1.875, 0.8125};
}

TEST(OutputCheck, AcceptsAnIdenticalOutput)
{
    EXPECT_EQ(outputMismatch(sampleOutput(), sampleOutput()), "");
}

TEST(OutputCheck, RejectsAFlippedIpcBit)
{
    JobOutput tampered = sampleOutput();
    tampered.ipc[2] = flipLowBit(tampered.ipc[2]);
    const std::string why = outputMismatch(sampleOutput(), tampered);
    EXPECT_NE(why.find("thread 2"), std::string::npos) << why;
}

TEST(OutputCheck, RejectsAFlippedMetricBitAndASignedZero)
{
    JobOutput ws = sampleOutput();
    ws.ws = flipLowBit(ws.ws);
    EXPECT_NE(outputMismatch(sampleOutput(), ws), "");
    JobOutput hs = sampleOutput();
    hs.hs = flipLowBit(hs.hs);
    EXPECT_NE(outputMismatch(sampleOutput(), hs), "");
    JobOutput zero = sampleOutput();
    zero.ipc[0] = 0.0;
    JobOutput negZero = zero;
    negZero.ipc[0] = -0.0;
    EXPECT_NE(outputMismatch(zero, negZero), "");
}

TEST(OutputCheck, RejectsAMissingThread)
{
    JobOutput shorter = sampleOutput();
    shorter.ipc.pop_back();
    EXPECT_NE(outputMismatch(sampleOutput(), shorter), "");
}

const std::string kStream = "{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n";

TEST(StreamCheck, AcceptsAnIdenticalStream)
{
    EXPECT_EQ(streamMismatch(kStream, kStream), "");
}

TEST(StreamCheck, RejectsATruncatedStream)
{
    EXPECT_NE(streamMismatch(kStream, kStream.substr(0, kStream.size() - 1)),
              "");
    const std::string dropped = "{\"a\":1}\n{\"b\":2}\n";
    const std::string why = streamMismatch(kStream, dropped);
    EXPECT_NE(why.find("16 bytes, expected 24"), std::string::npos) << why;
}

TEST(StreamCheck, RejectsAReorderedStream)
{
    const std::string swapped = "{\"b\":2}\n{\"a\":1}\n{\"c\":3}\n";
    EXPECT_NE(streamMismatch(kStream, swapped), "");
}

TEST(StreamCheck, RejectsOneChangedByte)
{
    std::string changed = kStream;
    changed[changed.size() - 3] = '4';
    EXPECT_NE(streamMismatch(kStream, changed), "");
}

tcm::sim::sweepd::RunOutcome
cleanWarmPass()
{
    tcm::sim::sweepd::RunOutcome o;
    o.ok = true;
    o.finished = true;
    o.emitted = o.emittedThisSession = 63;
    o.cacheHits = 63 * 24;
    return o;
}

TEST(WarmPassCheck, AcceptsACleanWarmPass)
{
    EXPECT_EQ(warmPassProblem(cleanWarmPass(), true), "");
    tcm::sim::sweepd::RunOutcome stopped = cleanWarmPass();
    stopped.finished = false;
    EXPECT_EQ(warmPassProblem(stopped, false), "");
}

TEST(WarmPassCheck, RejectsACacheMiss)
{
    tcm::sim::sweepd::RunOutcome missed = cleanWarmPass();
    missed.cacheMisses = 1;
    EXPECT_NE(warmPassProblem(missed, true).find("1 alone-IPC"),
              std::string::npos);
}

TEST(WarmPassCheck, RejectsAFailedOrUnfinishedPass)
{
    tcm::sim::sweepd::RunOutcome failed = cleanWarmPass();
    failed.ok = false;
    failed.error = "disk full";
    EXPECT_NE(warmPassProblem(failed, true).find("disk full"),
              std::string::npos);
    tcm::sim::sweepd::RunOutcome unfinished = cleanWarmPass();
    unfinished.finished = false;
    EXPECT_NE(warmPassProblem(unfinished, true), "");
    EXPECT_NE(warmPassProblem(cleanWarmPass(), false), "");
}

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

TEST(Tail, PicksTheHighestPercentileWithTenSamplesBeyond)
{
    const Tail t100 = tailOf(oneTo(100));
    ASSERT_TRUE(t100.ok);
    EXPECT_EQ(t100.pct, 90.0);
    EXPECT_EQ(t100.value, 90.0);
    EXPECT_EQ(t100.beyond, 10u);
    EXPECT_EQ(t100.samples, 100u);

    const Tail t1000 = tailOf(oneTo(1000));
    EXPECT_EQ(t1000.pct, 99.0);
    EXPECT_EQ(t1000.value, 990.0);
    EXPECT_EQ(t1000.beyond, 10u);

    const Tail t199 = tailOf(oneTo(199));
    EXPECT_EQ(t199.pct, 90.0); // p95 would leave only 9 beyond
    EXPECT_EQ(t199.beyond, 19u);
}

TEST(Tail, NeedsAtLeastTenSamplesBeyondTheMedian)
{
    EXPECT_TRUE(tailOf(oneTo(20)).ok);
    const Tail t19 = tailOf(oneTo(19));
    EXPECT_FALSE(t19.ok);
    EXPECT_EQ(t19.samples, 19u);
    EXPECT_FALSE(tailOf({}).ok);
}

TEST(Median, HandlesOddEvenAndEmpty)
{
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(FleetManifest, GivesEveryJobADistinctSchedulerSeedPair)
{
    for (std::uint64_t seed : {1ull, 2ull, 20261017ull}) {
        tcm::sim::sweepd::Manifest m;
        std::string error;
        ASSERT_TRUE(tcm::sim::sweepd::Manifest::parse(fleetManifest(seed), &m,
                                                      &error))
            << error;
        ASSERT_EQ(m.jobs.size(), fleetSchedulers().size() *
                                     fleetProtocols().size() *
                                     fleetIntensities().size());
        std::set<std::pair<std::string, std::uint64_t>> byRegistryName;
        std::set<std::pair<std::string, std::uint64_t>> byProfileName;
        std::set<std::tuple<std::string, std::string, double>> combos;
        for (const auto &job : m.jobs) {
            byRegistryName.insert({job.scheduler, job.seed});
            // runWorkload names profile files by the display name.
            byProfileName.insert(
                {tcm::sched::specByName(job.scheduler).spec.name(), job.seed});
            combos.insert({job.scheduler, job.protocol, job.intensity});
        }
        EXPECT_EQ(byRegistryName.size(), m.jobs.size());
        EXPECT_EQ(byProfileName.size(), m.jobs.size());
        EXPECT_EQ(combos.size(), m.jobs.size());
        EXPECT_TRUE(m.sampling.enabled);
        EXPECT_EQ(m.sampling.describe(), kFleetSample);
        EXPECT_EQ(m.workloadSeed, seed);
    }
    EXPECT_EQ(fleetManifest(5), fleetManifest(5));
    EXPECT_NE(fleetManifest(5), fleetManifest(6));
}

TEST(SpanLog, WritesChromeTraceEventsWithTheirJob)
{
    SpanLog log(true);
    {
        Span job(log, "job", 7);
        Span child(log, "sim.construct", 7);
    }
    SpanLog off(false);
    {
        Span ignored(off, "job", 1);
    }
    EXPECT_TRUE(off.records().empty());

    const std::string path = "tcmbench_span_test.json"; // ctest's build dir
    log.writeChromeTrace(path, "test");
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::filesystem::remove(path);
    const tcm::json::Value doc = tcm::json::parse(buf.str());
    ASSERT_TRUE(doc.isArray());
    ASSERT_EQ(doc.array.size(), 3u); // process name + two spans
    std::map<std::string, const tcm::json::Value *> spans;
    for (const tcm::json::Value &e : doc.array)
        if (e.stringOr("ph", "") == "X")
            spans[e.stringOr("name", "")] = &e;
    ASSERT_EQ(spans.size(), 2u);
    const tcm::json::Value *job = spans["job"];
    const tcm::json::Value *child = spans["sim.construct"];
    ASSERT_NE(job, nullptr);
    ASSERT_NE(child, nullptr);
    for (const tcm::json::Value *e : {job, child}) {
        ASSERT_NE(e->find("args"), nullptr);
        EXPECT_EQ(e->find("args")->numberOr("job", 0), 7);
    }
    // The child nests inside its cause on the same lane.
    EXPECT_EQ(job->numberOr("tid", -1), child->numberOr("tid", -2));
    EXPECT_LE(job->numberOr("ts", 1), child->numberOr("ts", 0));
    EXPECT_GE(job->numberOr("ts", 0) + job->numberOr("dur", 0),
              child->numberOr("ts", 1) + child->numberOr("dur", 1));
}

} // namespace
} // namespace perfbench
