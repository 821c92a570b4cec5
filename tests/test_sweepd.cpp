/**
 * @file
 * Sweep-daemon contract (sim/sweepd.hpp): manifests parse with
 * line-numbered rejection of anything malformed; a run streams one
 * JSONL ResultsDoc record per job in manifest order; a daemon killed
 * mid-queue (the --stop-after hook stops between batches exactly like a
 * kill) and restarted on the same state produces a final stream
 * byte-identical to an uninterrupted run; and a warm persistent
 * alone-IPC store eliminates every alone-run recomputation across
 * daemon generations (miss counter asserted zero).
 */

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/results.hpp"
#include "sim/sweepd.hpp"

using namespace tcm;
using sim::sweepd::Manifest;
using sim::sweepd::RunOutcome;
using sim::sweepd::Server;
namespace fs = std::filesystem;

namespace {

/** Small grid: 2 schedulers x 3 workloads + a second protocol = 8 jobs,
 *  tiny horizon, sampled — fast enough to run several times per test. */
const char *kManifest = "tcmsim-manifest v1\n"
                        "# test fleet\n"
                        "cores 4\n"
                        "channels 2\n"
                        "warmup 2000\n"
                        "cycles 20000\n"
                        "sample 2000:2:1000\n"
                        "workload-seed 7\n"
                        "job frfcfs ddr2-800 1 0 1\n"
                        "job frfcfs ddr2-800 1 1 2\n"
                        "job frfcfs ddr2-800 0.5 0 3\n"
                        "job tcm ddr2-800 1 0 1\n"
                        "job tcm ddr2-800 1 1 2\n"
                        "job tcm ddr2-800 0.5 0 3\n"
                        "job tcm ddr3-1333 1 0 4\n"
                        "job frfcfs ddr3-1333 1 0 4\n";

class SweepdTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("tcmsim_sweepd_" + std::string(::testing::UnitTest::
                                                   GetInstance()
                                                       ->current_test_info()
                                                       ->name()));
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    std::string writeManifest(const std::string &name,
                              const std::string &text) const
    {
        std::ofstream out(path(name), std::ios::binary);
        out << text;
        EXPECT_TRUE(out.good());
        return path(name);
    }

    static std::string readFile(const std::string &p)
    {
        std::ifstream in(p, std::ios::binary);
        EXPECT_TRUE(in.good()) << "cannot read " << p;
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    }

    Server::Options options(const std::string &state,
                            std::uint64_t stopAfter = 0,
                            int batch = 2) const
    {
        Server::Options opt;
        opt.stateDir = path(state);
        opt.jobs = 2;
        opt.batch = batch;
        opt.stopAfter = stopAfter;
        return opt;
    }

    fs::path dir_;
};

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        out.push_back(line);
    return out;
}

} // namespace

TEST_F(SweepdTest, ManifestParsesKnobsAndJobs)
{
    Manifest m;
    std::string err;
    ASSERT_TRUE(Manifest::parse(kManifest, &m, &err)) << err;
    EXPECT_EQ(m.cores, 4);
    EXPECT_EQ(m.channels, 2);
    EXPECT_EQ(m.warmup, 2'000u);
    EXPECT_EQ(m.measure, 20'000u);
    EXPECT_EQ(m.workloadSeed, 7u);
    ASSERT_TRUE(m.sampling.enabled);
    EXPECT_EQ(m.sampling.describe(), "2000:2:1000");
    ASSERT_EQ(m.jobs.size(), 8u);
    EXPECT_EQ(m.jobs[0].scheduler, "frfcfs");
    EXPECT_EQ(m.jobs[6].protocol, "ddr3-1333");
    EXPECT_EQ(m.jobs[2].intensity, 0.5);
    EXPECT_EQ(m.jobs[1].mixIndex, 1);
    EXPECT_EQ(m.jobs[7].seed, 4u);
    EXPECT_NE(m.textHash, 0u);

    // The scale a manifest denotes: sampled horizon, full-run scaling.
    sim::ExperimentScale scale = m.scale();
    EXPECT_EQ(scale.measure, 20'000u);
    EXPECT_EQ(scale.effectiveWarmup(), 1'000u);
    EXPECT_EQ(scale.effectiveMeasure(), 4'000u);
}

TEST_F(SweepdTest, ManifestRejectsMalformedInputWithLineNumbers)
{
    struct Case
    {
        const char *text;
        const char *line; //!< expected "line N" fragment
    };
    const Case cases[] = {
        {"", "line 1"},
        {"not a manifest\n", "line 1"},
        {"tcmsim-manifest v1\n", "line 1"}, // no jobs
        {"tcmsim-manifest v1\njob nosuch ddr2-800 1 0 1\n", "line 2"},
        {"tcmsim-manifest v1\njob tcm nosuch-proto 1 0 1\n", "line 2"},
        {"tcmsim-manifest v1\njob tcm ddr2-800 1.5 0 1\n", "line 2"},
        {"tcmsim-manifest v1\njob tcm ddr2-800 nan 0 1\n", "line 2"},
        {"tcmsim-manifest v1\njob tcm ddr2-800 1 -1 1\n", "line 2"},
        {"tcmsim-manifest v1\njob tcm ddr2-800 1 0\n", "line 2"},
        {"tcmsim-manifest v1\ncores zero\njob tcm ddr2-800 1 0 1\n",
         "line 2"},
        {"tcmsim-manifest v1\nbogus 7\njob tcm ddr2-800 1 0 1\n",
         "line 2"},
        {"tcmsim-manifest v1\nsample 10:2\njob tcm ddr2-800 1 0 1\n",
         "line 2"},
    };
    for (const Case &c : cases) {
        Manifest m;
        std::string err;
        EXPECT_FALSE(Manifest::parse(c.text, &m, &err))
            << "accepted: " << c.text;
        EXPECT_NE(err.find(c.line), std::string::npos)
            << "no '" << c.line << "' in: " << err;
    }
}

TEST_F(SweepdTest, RunStreamsOneRecordPerJobInManifestOrder)
{
    const std::string manifest = writeManifest("fleet.manifest", kManifest);
    Server server(options("state"));
    RunOutcome outcome = server.runManifest(manifest, path("out.jsonl"));
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_TRUE(outcome.finished);
    EXPECT_FALSE(outcome.resumed);
    EXPECT_EQ(outcome.emitted, 8u);
    EXPECT_EQ(outcome.emittedThisSession, 8u);

    const std::vector<std::string> records =
        lines(readFile(path("out.jsonl")));
    ASSERT_EQ(records.size(), 8u);

    Manifest m;
    std::string err;
    ASSERT_TRUE(Manifest::parse(kManifest, &m, &err)) << err;
    for (std::size_t i = 0; i < records.size(); ++i) {
        sim::results::ResultsDoc doc =
            sim::results::ResultsDoc::fromJson(records[i]);
        EXPECT_EQ(doc.bench, "sweepd");
        ASSERT_EQ(doc.rows.size(), 1u) << "record " << i;
        const sim::results::Row &row = doc.rows[0];
        EXPECT_EQ(row.series, m.jobs[i].scheduler)
            << "record " << i << " out of manifest order";
        for (const char *metric : {"ws", "ms", "hs"}) {
            const double *v = row.find(metric);
            ASSERT_NE(v, nullptr) << metric;
            EXPECT_GT(*v, 0.0) << metric;
        }
        // Sampled manifests carry the self-assessed window RSE.
        EXPECT_NE(row.find("rse_max"), nullptr);
    }

    // The throughput summary lands next to the stream, with wall-clock
    // data confined to the never-diffed run-provenance block.
    sim::results::ResultsDoc summary =
        sim::results::ResultsDoc::load(path("out.jsonl.summary.json"));
    EXPECT_EQ(summary.bench, "sweepd-summary");
    EXPECT_GT(summary.jobsPerSec, 0.0);
    EXPECT_GE(summary.cacheHitRate, 0.0);
    const double *emitted = summary.find("daemon", "", "jobs_emitted");
    ASSERT_NE(emitted, nullptr);
    EXPECT_EQ(*emitted, 8.0);
}

TEST_F(SweepdTest, KilledAndRestartedRunIsByteIdentical)
{
    const std::string manifest = writeManifest("fleet.manifest", kManifest);

    // Reference: one uninterrupted run.
    Server uninterrupted(options("state_a"));
    RunOutcome ref = uninterrupted.runManifest(manifest, path("a.jsonl"));
    ASSERT_TRUE(ref.ok) << ref.error;
    ASSERT_TRUE(ref.finished);
    const std::string golden = readFile(path("a.jsonl"));

    // Interrupted fleet: stop after 3 of 8 jobs (batch size 2, so the
    // daemon checkpoints at 2 and stops inside the third batch window —
    // exactly a kill between batches as far as the state dir can tell).
    Server firstLife(options("state_b", /*stopAfter=*/3));
    RunOutcome first = firstLife.runManifest(manifest, path("b.jsonl"));
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_FALSE(first.finished);
    EXPECT_FALSE(first.resumed);
    EXPECT_LT(first.emitted, 8u);
    EXPECT_GE(first.emitted, 3u);

    // Second life: same state, no stop limit — must resume, not restart.
    Server secondLife(options("state_b"));
    RunOutcome second = secondLife.runManifest(manifest, path("b.jsonl"));
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_TRUE(second.finished);
    EXPECT_TRUE(second.resumed);
    EXPECT_EQ(second.emitted, 8u);
    EXPECT_EQ(second.emittedThisSession, 8u - first.emitted);

    EXPECT_EQ(readFile(path("b.jsonl")), golden)
        << "kill/resume stream differs from the uninterrupted run";
}

TEST_F(SweepdTest, StaleBytesPastTheCheckpointAreDiscardedOnResume)
{
    const std::string manifest = writeManifest("fleet.manifest", kManifest);
    Server uninterrupted(options("state_a"));
    ASSERT_TRUE(
        uninterrupted.runManifest(manifest, path("a.jsonl")).ok);
    const std::string golden = readFile(path("a.jsonl"));

    Server firstLife(options("state_b", /*stopAfter=*/4));
    RunOutcome first = firstLife.runManifest(manifest, path("b.jsonl"));
    ASSERT_TRUE(first.ok) << first.error;
    ASSERT_FALSE(first.finished);

    // Simulate a kill mid-write: garbage lands after the last durable
    // checkpoint. Resume must truncate it away, then re-emit.
    {
        std::ofstream out(path("b.jsonl"),
                          std::ios::binary | std::ios::app);
        out << "{\"torn\": partial rec";
    }

    Server secondLife(options("state_b"));
    RunOutcome second = secondLife.runManifest(manifest, path("b.jsonl"));
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_TRUE(second.finished);
    EXPECT_TRUE(second.resumed);
    EXPECT_EQ(readFile(path("b.jsonl")), golden);
}

TEST_F(SweepdTest, EditedManifestInvalidatesTheCheckpoint)
{
    const std::string manifest = writeManifest("fleet.manifest", kManifest);
    Server firstLife(options("state", /*stopAfter=*/3));
    ASSERT_TRUE(firstLife.runManifest(manifest, path("out.jsonl")).ok);

    // Same path, different content: the checkpoint binds the manifest
    // hash, so the run must restart from job 0, not resume.
    std::string edited = kManifest;
    edited += "job tcm ddr2-800 0.5 1 9\n";
    writeManifest("fleet.manifest", edited);

    Server secondLife(options("state"));
    RunOutcome outcome =
        secondLife.runManifest(manifest, path("out.jsonl"));
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_FALSE(outcome.resumed);
    EXPECT_TRUE(outcome.finished);
    EXPECT_EQ(outcome.emitted, 9u);
    EXPECT_EQ(lines(readFile(path("out.jsonl"))).size(), 9u);
}

TEST_F(SweepdTest, WarmPersistentCacheEliminatesAloneRecomputation)
{
    const std::string manifest = writeManifest("fleet.manifest", kManifest);

    Server coldLife(options("state"));
    RunOutcome cold = coldLife.runManifest(manifest, path("cold.jsonl"));
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_GT(cold.cacheMisses, 0u) << "first fleet must simulate";

    // The stores must exist, one per protocol fingerprint.
    int stores = 0;
    for (const auto &entry : fs::directory_iterator(path("state")))
        if (entry.path().extension() == ".cache")
            ++stores;
    EXPECT_EQ(stores, 2) << "one persistent store per protocol config";

    // A new daemon generation on the same state dir, streaming to a
    // fresh output (so every job re-runs), must never recompute an
    // alone denominator: all lookups hit the loaded stores.
    Server warmLife(options("state"));
    RunOutcome warm = warmLife.runManifest(manifest, path("warm.jsonl"));
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_TRUE(warm.finished);
    EXPECT_EQ(warm.cacheMisses, 0u)
        << "warm fleet recomputed alone denominators";
    EXPECT_GT(warm.cacheHits, 0u);

    // And the stream itself is independent of cache temperature.
    EXPECT_EQ(readFile(path("warm.jsonl")), readFile(path("cold.jsonl")));
}

TEST_F(SweepdTest, DrainSpoolProcessesAndParksManifests)
{
    Server server(options("state"));
    fs::create_directories(path("state") + "/spool");

    // One good manifest and one broken one.
    writeManifest("state/spool/10-fleet.manifest", kManifest);
    writeManifest("state/spool/20-broken.manifest",
                  "tcmsim-manifest v1\njob nosuch ddr2-800 1 0 1\n");

    int finished = server.drainSpool();
    EXPECT_EQ(finished, 1);
    EXPECT_TRUE(fs::exists(path("state") + "/results/10-fleet.jsonl"));
    EXPECT_TRUE(fs::exists(path("state") + "/done/10-fleet.manifest"));
    EXPECT_TRUE(
        fs::exists(path("state") + "/failed/20-broken.manifest"));
    EXPECT_TRUE(fs::is_empty(path("state") + "/spool"));

    ASSERT_EQ(
        lines(readFile(path("state") + "/results/10-fleet.jsonl")).size(),
        8u);
}

TEST_F(SweepdTest, InterruptedSpoolManifestResumesOnNextDrain)
{
    // stopAfter interrupts the manifest mid-queue; it must stay spooled
    // and the next drain must finish it from the checkpoint.
    Server limited(options("state", /*stopAfter=*/3));
    fs::create_directories(path("state") + "/spool");
    writeManifest("state/spool/fleet.manifest", kManifest);

    EXPECT_EQ(limited.drainSpool(), 0);
    EXPECT_TRUE(
        fs::exists(path("state") + "/spool/fleet.manifest"));

    Server unlimited(options("state"));
    EXPECT_EQ(unlimited.drainSpool(), 1);
    EXPECT_TRUE(fs::exists(path("state") + "/done/fleet.manifest"));
    ASSERT_EQ(
        lines(readFile(path("state") + "/results/fleet.jsonl")).size(),
        8u);
}

TEST_F(SweepdTest, EnvironmentProfilesGetOneFilePerJob)
{
    // Same scheduler and seed throughout: only the stream point tells
    // the jobs apart, so it must name their TCMSIM_PROFILE files.
    const std::string manifest =
        writeManifest("profiled.manifest", "tcmsim-manifest v1\n"
                                           "cores 4\n"
                                           "channels 2\n"
                                           "warmup 1000\n"
                                           "cycles 5000\n"
                                           "job tcm ddr2-800 0.5 0 1\n"
                                           "job tcm ddr3-1600 0.5 0 1\n"
                                           "job tcm ddr2-800 1 0 1\n"
                                           "job tcm ddr2-800 0.5 1 1\n");
    const std::string profiles = path("profiles");
    ::setenv("TCMSIM_PROFILE", profiles.c_str(), 1);
    Server server(options("state"));
    RunOutcome outcome = server.runManifest(manifest, path("out.jsonl"));
    ::unsetenv("TCMSIM_PROFILE");
    ASSERT_TRUE(outcome.ok) << outcome.error;

    std::size_t files = 0;
    for (const auto &entry : fs::directory_iterator(profiles)) {
        EXPECT_EQ(entry.path().extension(), ".json") << entry.path();
        ++files;
    }
    EXPECT_EQ(files, 4u);
}

TEST_F(SweepdTest, BadManifestPathFailsCleanly)
{
    Server server(options("state"));
    RunOutcome outcome =
        server.runManifest(path("missing.manifest"), path("out.jsonl"));
    EXPECT_FALSE(outcome.ok);
    EXPECT_FALSE(outcome.error.empty());
}
