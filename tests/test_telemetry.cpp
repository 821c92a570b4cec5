/**
 * @file
 * In-run telemetry tests: ring-buffer bounds, JSON encoding, the
 * detached fast path, sampler cadence, the scheduler-decision
 * cross-check (trace events must match live scheduler state), lifecycle
 * accounting, and the JSONL / Chrome trace serializers. Bit-identity
 * with telemetry attached is ObserverPurity's (tests/test_prof).
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "telemetry/sink.hpp"
#include "workload/mixes.hpp"
#include "scratch.hpp"

using namespace tcm;

namespace {

/** Small, fast baseline system shared by the simulation tests. */
sim::SystemConfig
smallConfig()
{
    sim::SystemConfig config;
    config.numCores = 4;
    config.numChannels = 2;
    return config;
}

std::vector<workload::ThreadProfile>
smallMix()
{
    return workload::randomMix(4, 1.0, 11);
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

} // namespace

// ---------------------------------------------------------------------------
// Value types

TEST(RingBuffer, DropsOldestAndCountsEvictions)
{
    telemetry::RingBuffer<int> ring(3);
    for (int i = 0; i < 5; ++i)
        ring.push(i);
    ASSERT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.dropped(), 2u);
    EXPECT_EQ(ring.at(0), 2); // oldest retained
    EXPECT_EQ(ring.at(1), 3);
    EXPECT_EQ(ring.at(2), 4);
    EXPECT_EQ(ring.back(), 4);

    std::vector<int> seen;
    ring.forEach([&](int v) { seen.push_back(v); });
    EXPECT_EQ(seen, (std::vector<int>{2, 3, 4}));
}

TEST(RingBuffer, ZeroCapacityRefusesEverything)
{
    telemetry::RingBuffer<int> ring(0);
    ring.push(1);
    ring.push(2);
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.dropped(), 2u);
}

TEST(JsonHelpers, EncodeValues)
{
    EXPECT_EQ(telemetry::jsonNumber(telemetry::kNoGauge), "null");
    EXPECT_EQ(telemetry::jsonNumber(std::uint64_t{42}), "42");
    EXPECT_EQ(telemetry::jsonNumber(std::int64_t{-1}), "-1");
    EXPECT_EQ(json::quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
    EXPECT_EQ(telemetry::jsonArray(std::vector<int>{1, 2, 3}), "[1,2,3]");
    EXPECT_EQ(telemetry::jsonArray(std::vector<double>{0.5}), "[0.5]");

    telemetry::DecisionEvent e;
    e.args = {{"k", "7"}};
    EXPECT_EQ(e.arg("k"), "7");
    EXPECT_EQ(e.arg("missing"), "");
}

// ---------------------------------------------------------------------------
// Fast path: a sink that is never attached sees nothing

TEST(TelemetryFastPath, UnattachedSinkReceivesNothing)
{
    sched::SchedulerSpec spec = sched::SchedulerSpec::tcmSpec();
    spec.scaleToRun(30'000);
    sim::Simulator sim(smallConfig(), smallMix(), spec, /*seed=*/3);
    telemetry::TelemetrySink sink; // constructed but never attached
    sim.run(5'000, 30'000);
    EXPECT_EQ(sink.totalRecords(), 0u);
    EXPECT_EQ(sink.droppedRecords(), 0u);
}

// ---------------------------------------------------------------------------
// Interval sampler

TEST(TelemetrySampler, CadenceMatchesConfiguredInterval)
{
    sched::SchedulerSpec spec = sched::SchedulerSpec::frfcfs();

    telemetry::TelemetryConfig cfg;
    cfg.sampleInterval = 5'000;
    telemetry::TelemetrySink sink(cfg);

    sim::SystemConfig config = smallConfig();
    sim::Simulator sim(config, smallMix(), spec, /*seed=*/5,
                       /*enableProbe=*/true);
    sim.attach({.telemetry = &sink});
    sim.step(50'000);

    // Armed at cycle 0, sampling at 5k, 10k, ..., 45k (50k is past the
    // last simulated cycle 49'999): 9 sample points.
    const std::size_t points = 9;
    ASSERT_EQ(sink.threadSamples().size(), points * 4);
    ASSERT_EQ(sink.channelSamples().size(), points * config.numChannels);

    Cycle prev = 0;
    sink.threadSamples().forEach([&](const telemetry::ThreadSample &s) {
        EXPECT_GE(s.cycle, prev);
        prev = s.cycle;
        EXPECT_EQ(s.cycle % 5'000, 0u);
        // Probe attached: behaviour gauges must be measured, not null.
        EXPECT_TRUE(telemetry::hasGauge(s.blp));
        EXPECT_TRUE(telemetry::hasGauge(s.outstanding));
        EXPECT_GE(s.ipc, 0.0);
    });

    sink.channelSamples().forEach([&](const telemetry::ChannelSample &s) {
        EXPECT_GE(s.cmdBusUtil, 0.0);
        EXPECT_LE(s.dataBusUtil, 1.0 + 1e-9);
    });
}

TEST(TelemetrySampler, ProbelessSamplesCarryNullBehaviorGauges)
{
    telemetry::TelemetryConfig cfg;
    cfg.sampleInterval = 10'000;
    telemetry::TelemetrySink sink(cfg);

    sim::Simulator sim(smallConfig(), smallMix(),
                       sched::SchedulerSpec::frfcfs(), /*seed=*/5,
                       /*enableProbe=*/false);
    sim.attach({.telemetry = &sink});
    sim.step(40'000);

    ASSERT_GT(sink.threadSamples().size(), 0u);
    sink.threadSamples().forEach([&](const telemetry::ThreadSample &s) {
        EXPECT_FALSE(telemetry::hasGauge(s.rbl));
        EXPECT_FALSE(telemetry::hasGauge(s.blp));
        EXPECT_FALSE(telemetry::hasGauge(s.outstanding));
    });
}

// ---------------------------------------------------------------------------
// Scheduler-decision trace vs live scheduler state (acceptance check)

TEST(TelemetryDecisions, TcmTraceMatchesSchedulerInternalState)
{
    sched::SchedulerSpec spec = sched::SchedulerSpec::tcmSpec();
    spec.scaleToRun(100'000);

    telemetry::TelemetrySink sink;
    sim::SystemConfig config = smallConfig();
    sim::Simulator sim(config, smallMix(), spec, /*seed=*/9,
                       /*enableProbe=*/true);
    sim.attach({.telemetry = &sink});
    sim.step(100'000);

    auto quanta = sink.eventsNamed("tcm.quantum");
    ASSERT_GT(quanta.size(), 1u) << "expected multiple TCM quanta";

    // Ranks change only at quantum and shuffle boundaries, and both emit
    // an event carrying the new ranks — so the newest ranks-bearing
    // event must equal the scheduler's live rank state.
    const telemetry::DecisionEvent *latest = quanta.back();
    if (const telemetry::DecisionEvent *sh = sink.lastEvent("tcm.shuffle"))
        if (sh->cycle > latest->cycle)
            latest = sh;

    std::vector<int> live(sim.numThreads());
    for (ThreadId t = 0; t < sim.numThreads(); ++t)
        live[t] = sim.scheduler().rankOf(0, t);
    EXPECT_EQ(latest->arg("ranks"), telemetry::jsonArray(live));

    // Every quantum event describes a full partition of the threads.
    for (const telemetry::DecisionEvent *q : quanta) {
        const std::string &lat = q->arg("latency_cluster");
        const std::string &bw = q->arg("bandwidth_cluster");
        ASSERT_FALSE(lat.empty());
        ASSERT_FALSE(bw.empty());
        int members = 0;
        for (const std::string *s : {&lat, &bw}) {
            if (*s == "[]")
                continue;
            ++members; // at least one element per non-empty list
            for (char c : *s)
                if (c == ',')
                    ++members;
        }
        EXPECT_EQ(members, sim.numThreads()) << "partition at cycle "
                                             << q->cycle;
        EXPECT_FALSE(q->arg("shuffle_mode").empty());
        EXPECT_FALSE(q->arg("niceness").empty());
    }
}

TEST(TelemetryDecisions, BaselineSchedulersEmitTheirEvents)
{
    struct Case
    {
        sched::SchedulerSpec spec;
        const char *event;
    };
    std::vector<Case> cases = {
        {sched::SchedulerSpec::atlasSpec(), "atlas.rank"},
        {sched::SchedulerSpec::parbsSpec(), "parbs.batch_done"},
        {sched::SchedulerSpec::stfmSpec(), "stfm.update"},
    };
    for (Case &c : cases) {
        c.spec.scaleToRun(60'000);
        telemetry::TelemetrySink sink;
        sim::Simulator sim(smallConfig(), smallMix(), c.spec, /*seed=*/9);
        sim.attach({.telemetry = &sink});
        sim.step(60'000);
        EXPECT_NE(sink.lastEvent(c.event), nullptr)
            << c.event << " never emitted";
    }
}

// ---------------------------------------------------------------------------
// Request lifecycle

TEST(TelemetryLifecycle, BreakdownSumsToEndToEndLatency)
{
    sched::SchedulerSpec spec = sched::SchedulerSpec::tcmSpec();
    spec.scaleToRun(60'000);

    telemetry::TelemetrySink sink;
    sim::SystemConfig config = smallConfig();
    sim::Simulator sim(config, smallMix(), spec, /*seed=*/13);
    sim.attach({.telemetry = &sink});
    sim.run(10'000, 60'000);

    ASSERT_GT(sink.lifecycleRecords(), 0u);
    const double fixed = static_cast<double>(config.timing.cpuToMcDelay);

    for (ThreadId t = 0; t < sim.numThreads(); ++t) {
        // Reads recorded by the latency tracker after measurement start.
        std::uint64_t reads = 0;
        double weightedMean = 0.0;
        for (ChannelId ch = 0; ch < config.numChannels; ++ch) {
            const RunningStat &s = sim.latency(ch).threadStats(t);
            reads += s.count();
            weightedMean += s.mean() * static_cast<double>(s.count());
        }
        const auto &lc = sink.lifecycle(t);
        // Lifecycle spans the whole run (attach at cycle 0); the latency
        // tracker resets at measurement start, so it can only have fewer.
        ASSERT_GE(lc.queueing.count(), reads) << t;
        EXPECT_EQ(lc.queueing.count(), lc.service.count()) << t;
        if (reads != lc.queueing.count() || reads == 0)
            continue;
        // Same population: total latency = wire delay + queueing + service.
        double latMean = weightedMean / static_cast<double>(reads);
        double sumMeans = fixed + lc.queueing.mean() + lc.service.mean();
        EXPECT_NEAR(latMean, sumMeans, 1e-6 * latMean) << t;
    }
}

TEST(TelemetryLifecycle, WholeRunIdentityWithoutWarmup)
{
    // With no warmup, the latency tracker and the lifecycle sink see
    // exactly the same reads, so the identity must hold per thread.
    sched::SchedulerSpec spec = sched::SchedulerSpec::frfcfs();
    telemetry::TelemetrySink sink;
    sim::SystemConfig config = smallConfig();
    sim::Simulator sim(config, smallMix(), spec, /*seed=*/13);
    sim.attach({.telemetry = &sink});
    sim.run(0, 60'000);

    const double fixed = static_cast<double>(config.timing.cpuToMcDelay);
    bool any = false;
    for (ThreadId t = 0; t < sim.numThreads(); ++t) {
        std::uint64_t reads = 0;
        double weightedMean = 0.0;
        for (ChannelId ch = 0; ch < config.numChannels; ++ch) {
            const RunningStat &s = sim.latency(ch).threadStats(t);
            reads += s.count();
            weightedMean += s.mean() * static_cast<double>(s.count());
        }
        const auto &lc = sink.lifecycle(t);
        ASSERT_EQ(lc.queueing.count(), reads) << t;
        if (reads == 0)
            continue;
        any = true;
        double latMean = weightedMean / static_cast<double>(reads);
        EXPECT_NEAR(latMean,
                    fixed + lc.queueing.mean() + lc.service.mean(),
                    1e-6 * latMean)
            << t;
        // Histogram percentiles exist for both components.
        EXPECT_GT(lc.queueingHist.count(), 0u);
        EXPECT_GT(lc.serviceHist.count(), 0u);
    }
    EXPECT_TRUE(any) << "no thread serviced any read";
}

// ---------------------------------------------------------------------------
// Serialization + experiment-driver integration

TEST(TelemetrySerialization, JsonlAndChromeTraceAreWellFormed)
{
    std::string dir = test::scratchPath("telemetry").string();
    sim::SystemConfig config = smallConfig();
    config.telemetry.enabled = true;
    config.telemetry.sampleInterval = 5'000;
    config.telemetry.dir = dir;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    ASSERT_FALSE(ec);

    sim::ExperimentScale scale;
    scale.warmup = 5'000;
    scale.measure = 50'000;
    sim::AloneIpcCache cache(config, scale.warmup, scale.measure);
    ThreadPool pool(1);
    sim::RunResult r =
        sim::runCells({{config, &cache, smallMix(),
                        sched::SchedulerSpec::tcmSpec(), /*seed=*/21,
                        "TCM_seed21"}},
                      scale, pool)
            .front();

    ASSERT_NE(r.telemetry, nullptr);
    EXPECT_GT(r.telemetry->totalRecords(), 0u);
    EXPECT_EQ(r.telemetry->meta().scheduler, "TCM");
    EXPECT_EQ(r.telemetry->meta().seed, 21u);

    // A named cell writes <dir>/<name>.jsonl and <dir>/<name>.trace.json.
    std::string base = dir + "/TCM_seed21";
    std::string jsonl = readFile(base + ".jsonl");
    std::string trace = readFile(base + ".trace.json");
    std::filesystem::remove_all(dir, ec);

    // JSONL: one object per line, self-describing types, meta first.
    ASSERT_FALSE(jsonl.empty());
    EXPECT_EQ(jsonl.rfind("{\"type\":\"meta\"", 0), 0u);
    EXPECT_NE(jsonl.find("\"type\":\"thread_sample\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"type\":\"channel_sample\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"name\":\"tcm.quantum\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"type\":\"lifecycle\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"type\":\"tail\""), std::string::npos);
    std::istringstream lines(jsonl);
    std::string line;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
    }

    // Chrome trace: a JSON array of counter/instant/metadata events.
    ASSERT_FALSE(trace.empty());
    EXPECT_EQ(trace.front(), '[');
    EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(trace.find("process_name"), std::string::npos);
    EXPECT_NE(trace.find("tcm.quantum"), std::string::npos);
    // Balanced brackets/braces (cheap well-formedness proxy; the values
    // are numbers and escaped strings only).
    long depth = 0;
    bool inString = false, escaped = false;
    for (char c : trace) {
        if (escaped) {
            escaped = false;
            continue;
        }
        if (inString) {
            if (c == '\\')
                escaped = true;
            else if (c == '"')
                inString = false;
            continue;
        }
        if (c == '"')
            inString = true;
        else if (c == '[' || c == '{')
            ++depth;
        else if (c == ']' || c == '}') {
            --depth;
            ASSERT_GE(depth, 0);
        }
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(inString);

    // The sink retained what the files were written from.
    EXPECT_GT(r.telemetry->threadSamples().size(), 0u);
    EXPECT_GT(r.telemetry->events().size(), 0u);
    EXPECT_GT(r.telemetry->lifecycleRecords(), 0u);
}

TEST(TelemetrySerialization, WritesToAFullDiskThrow)
{
    // /dev/full takes the open and the buffered writes and fails only
    // the flush in fclose, so a writer that ignores fclose's result
    // returns normally having lost the file.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this system";
    telemetry::TelemetrySink sink; // meta and tail lines only
    EXPECT_THROW(sink.writeJsonl("/dev/full"), std::runtime_error);
    EXPECT_THROW(sink.writeChromeTrace("/dev/full"), std::runtime_error);
}

TEST(TelemetrySerialization, RunWithoutTelemetryProducesNoSink)
{
    sim::SystemConfig config = smallConfig();
    sim::ExperimentScale scale;
    scale.warmup = 2'000;
    scale.measure = 20'000;
    sim::AloneIpcCache cache(config, scale.warmup, scale.measure);
    sim::RunResult r =
        sim::runWorkload(config, smallMix(),
                         sched::SchedulerSpec::frfcfs(), scale, cache,
                         /*seed=*/21);
    EXPECT_EQ(r.telemetry, nullptr);
}
