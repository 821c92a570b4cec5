/**
 * @file
 * Unit tests for the paper-claims layer: results documents (JSON
 * round-trip, deterministic serialization), claim evaluation on
 * synthetic result sets, and the golden-baseline diff.
 */

#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/claims.hpp"
#include "sim/results.hpp"

using namespace tcm;
using namespace tcm::sim;

namespace {

results::ResultsDoc
sampleDoc()
{
    results::ResultsDoc doc;
    doc.bench = "fig4";
    doc.warmup = 50'000;
    doc.measure = 300'000;
    doc.workloadsPerCategory = 8;
    doc.set("TCM", "ws", 8.89);
    doc.set("TCM", "ms", 9.99);
    doc.set("ATLAS", "ws", 9.18);
    doc.setAt("TCM", "i50", "ws", 0.5);
    return doc;
}

} // namespace

// ---------------------------------------------------------------------------
// ResultsDoc
// ---------------------------------------------------------------------------

TEST(ResultsDoc, SetAndFind)
{
    results::ResultsDoc doc = sampleDoc();
    ASSERT_NE(doc.find("TCM", "", "ws"), nullptr);
    EXPECT_DOUBLE_EQ(*doc.find("TCM", "", "ws"), 8.89);
    ASSERT_NE(doc.find("TCM", "i50", "ws"), nullptr);
    EXPECT_DOUBLE_EQ(*doc.find("TCM", "i50", "ws"), 0.5);
    EXPECT_EQ(doc.find("TCM", "", "nope"), nullptr);
    EXPECT_EQ(doc.find("STFM", "", "ws"), nullptr);
}

TEST(ResultsDoc, SetOverwritesInPlace)
{
    results::ResultsDoc doc;
    doc.set("A", "x", 1.0);
    doc.set("A", "y", 2.0);
    doc.set("A", "x", 3.0);
    ASSERT_EQ(doc.rows.size(), 1u);
    ASSERT_EQ(doc.rows[0].metrics.size(), 2u);
    EXPECT_EQ(doc.rows[0].metrics[0].first, "x");
    EXPECT_DOUBLE_EQ(doc.rows[0].metrics[0].second, 3.0);
}

TEST(ResultsDoc, JsonRoundTrip)
{
    results::ResultsDoc doc = sampleDoc();
    std::string text = doc.toJson();
    results::ResultsDoc back = results::ResultsDoc::fromJson(text);

    EXPECT_EQ(back.schemaVersion, results::kSchemaVersion);
    EXPECT_EQ(back.bench, "fig4");
    EXPECT_EQ(back.warmup, doc.warmup);
    EXPECT_EQ(back.measure, doc.measure);
    EXPECT_EQ(back.workloadsPerCategory, doc.workloadsPerCategory);
    ASSERT_EQ(back.rows.size(), doc.rows.size());
    EXPECT_DOUBLE_EQ(*back.find("TCM", "", "ws"), 8.89);
    EXPECT_DOUBLE_EQ(*back.find("TCM", "i50", "ws"), 0.5);

    // Deterministic serialization: a round-trip re-serializes to the
    // exact same bytes.
    EXPECT_EQ(back.toJson(), text);

    // The committed goldens' run blocks still carry the retired
    // "intra_workers" key: such a document must load, and re-serialize
    // without the key.
    const std::string legacy =
        "{\n  \"schema_version\": 1,\n  \"bench\": \"fig4\",\n"
        "  \"scale\": {\"warmup\": 50000, \"measure\": 300000, "
        "\"workloads_per_category\": 4},\n"
        "  \"run\": {\"wall_seconds\": 5.079417784, \"intra_workers\": 1},\n"
        "  \"rows\": [\n"
        "    {\"series\": \"TCM\", \"metrics\": {\"ws\": 8.89}}\n"
        "  ]\n}\n";
    results::ResultsDoc old = results::ResultsDoc::fromJson(legacy);
    EXPECT_EQ(old.wallSeconds, 5.079417784);
    EXPECT_DOUBLE_EQ(*old.find("TCM", "", "ws"), 8.89);
    const std::string reserialized = old.toJson();
    EXPECT_EQ(reserialized.find("intra_workers"), std::string::npos);
    EXPECT_NE(reserialized.find("\"run\": {\"wall_seconds\": 5.079417784},"),
              std::string::npos);
}

TEST(ResultsDoc, RoundTripPreservesExactDoubles)
{
    results::ResultsDoc doc;
    doc.bench = "b";
    doc.set("s", "third", 1.0 / 3.0);
    doc.set("s", "tiny", 5e-324);
    doc.set("s", "big", 1.7976931348623157e308);
    results::ResultsDoc back = results::ResultsDoc::fromJson(doc.toJson());
    EXPECT_EQ(*back.find("s", "", "third"), 1.0 / 3.0);
    EXPECT_EQ(*back.find("s", "", "tiny"), 5e-324);
    EXPECT_EQ(*back.find("s", "", "big"), 1.7976931348623157e308);
}

TEST(ResultsDoc, NonFiniteSerializesAsNull)
{
    results::ResultsDoc doc;
    doc.bench = "b";
    doc.set("s", "bad", std::nan(""));
    std::string text = doc.toJson();
    EXPECT_NE(text.find("\"bad\": null"), std::string::npos);
    results::ResultsDoc back = results::ResultsDoc::fromJson(text);
    ASSERT_NE(back.find("s", "", "bad"), nullptr);
    EXPECT_TRUE(std::isnan(*back.find("s", "", "bad")));
}

TEST(ResultsDoc, RejectsUnsupportedSchemaVersion)
{
    std::string text = sampleDoc().toJson();
    std::string bumped = text;
    bumped.replace(bumped.find("\"schema_version\": 1"),
                   std::string("\"schema_version\": 1").size(),
                   "\"schema_version\": 999");
    EXPECT_THROW(results::ResultsDoc::fromJson(bumped), std::runtime_error);
}

TEST(ResultsDoc, RejectsMalformedJson)
{
    EXPECT_THROW(results::ResultsDoc::fromJson("{\"bench\": "),
                 std::runtime_error);
    EXPECT_THROW(results::ResultsDoc::fromJson("[1, 2]"),
                 std::runtime_error);
}

TEST(ResultsDoc, SaveToAFullDiskThrows)
{
    // /dev/full takes the open and the buffered write and fails only the
    // flush in fclose, so only a checked close reports the lost file.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this system";
    EXPECT_THROW(sampleDoc().save("/dev/full"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Claim evaluation on synthetic result sets
// ---------------------------------------------------------------------------

namespace {

claims::ResultSet
syntheticSet()
{
    claims::ResultSet set;
    set.set("f/TCM/ws", 8.9);
    set.set("f/ATLAS/ws", 9.2);
    set.set("f/PAR-BS/ws", 8.1);
    set.set("f/TCM/ms", 10.0);
    set.set("f/ATLAS/ms", 14.0);
    return set;
}

} // namespace

TEST(Claims, FlatKeySyntax)
{
    EXPECT_EQ(claims::ResultSet::key("fig4", "TCM", "", "ws"),
              "fig4/TCM/ws");
    EXPECT_EQ(claims::ResultSet::key("fig7", "TCM", "i50", "ws"),
              "fig7/TCM@i50/ws");
}

TEST(Claims, ResultSetFromDoc)
{
    claims::ResultSet set;
    set.add(sampleDoc());
    ASSERT_NE(set.find("fig4/TCM/ws"), nullptr);
    EXPECT_DOUBLE_EQ(*set.find("fig4/TCM/ws"), 8.89);
    ASSERT_NE(set.find("fig4/TCM@i50/ws"), nullptr);
    EXPECT_EQ(set.find("fig4/STFM/ws"), nullptr);
}

TEST(Claims, OrderingClaimPasses)
{
    claims::Claim c = claims::Claim::atLeast(
        "t.ws", "ATLAS leads", "f/ATLAS/ws", {"f/TCM/ws", "f/PAR-BS/ws"});
    claims::Outcome o = claims::evaluate(c, syntheticSet());
    EXPECT_EQ(o.status, claims::Status::Pass);
    EXPECT_GT(o.margin, 0.0);
}

TEST(Claims, OrderingClaimFailsWhenFlipped)
{
    // TCM ws (8.9) is NOT >= ATLAS ws (9.2): ordering claim fails.
    claims::Claim c = claims::Claim::atLeast("t.flip", "flipped",
                                             "f/TCM/ws", {"f/ATLAS/ws"});
    claims::Outcome o = claims::evaluate(c, syntheticSet());
    EXPECT_EQ(o.status, claims::Status::Fail);
    EXPECT_LT(o.margin, 0.0);
}

TEST(Claims, EpsilonAbsorbsSmallDeficit)
{
    claims::Claim c = claims::Claim::atLeast(
        "t.eps", "within eps", "f/TCM/ws", {"f/ATLAS/ws"}, /*epsilon=*/0.5);
    EXPECT_EQ(claims::evaluate(c, syntheticSet()).status,
              claims::Status::Pass);
}

TEST(Claims, RatioClaimTolerance)
{
    // TCM ms / ATLAS ms = 10/14 = 0.714: passes factor 0.75, fails 0.70.
    claims::Claim loose = claims::Claim::ratioAtMost(
        "t.loose", "loose", "f/TCM/ms", {"f/ATLAS/ms"}, 0.75);
    claims::Claim tight = claims::Claim::ratioAtMost(
        "t.tight", "tight", "f/TCM/ms", {"f/ATLAS/ms"}, 0.70);
    EXPECT_EQ(claims::evaluate(loose, syntheticSet()).status,
              claims::Status::Pass);
    EXPECT_EQ(claims::evaluate(tight, syntheticSet()).status,
              claims::Status::Fail);
}

TEST(Claims, BandClaim)
{
    claims::ResultSet set;
    set.set("t/worst/err", 5.0);
    claims::Claim in = claims::Claim::band("t.in", "in", "t/worst/err",
                                           0.0, 12.0);
    claims::Claim out = claims::Claim::band("t.out", "out", "t/worst/err",
                                            0.0, 4.0);
    EXPECT_EQ(claims::evaluate(in, set).status, claims::Status::Pass);
    EXPECT_EQ(claims::evaluate(out, set).status, claims::Status::Fail);
}

TEST(Claims, MissingKeyIsNotAPass)
{
    claims::Claim subject = claims::Claim::band("t.m1", "m", "f/NOPE/ws",
                                                0.0, 1.0);
    claims::Claim reference = claims::Claim::atLeast(
        "t.m2", "m", "f/TCM/ws", {"f/NOPE/ws"});
    EXPECT_EQ(claims::evaluate(subject, syntheticSet()).status,
              claims::Status::Missing);
    EXPECT_EQ(claims::evaluate(reference, syntheticSet()).status,
              claims::Status::Missing);

    std::vector<claims::Outcome> outcomes =
        claims::evaluateAll({subject, reference}, syntheticSet());
    EXPECT_EQ(claims::failureCount(outcomes), 2);
}

TEST(Claims, WorstReferenceDeterminesMargin)
{
    // ATLAS ws vs {TCM 8.9, PAR-BS 8.1}: the binding reference is TCM.
    claims::Claim c = claims::Claim::atLeast(
        "t.worst", "w", "f/ATLAS/ws", {"f/PAR-BS/ws", "f/TCM/ws"});
    claims::Outcome o = claims::evaluate(c, syntheticSet());
    EXPECT_NEAR(o.margin, 9.2 - 8.9, 1e-12);
    EXPECT_NE(o.detail.find("f/TCM/ws"), std::string::npos);
}

TEST(Claims, PaperRegistryIsWellFormed)
{
    std::vector<claims::Claim> registry = claims::paperClaims();
    EXPECT_GE(registry.size(), 10u);
    for (const claims::Claim &c : registry) {
        EXPECT_FALSE(c.id.empty());
        EXPECT_FALSE(c.description.empty());
        EXPECT_FALSE(c.subject.empty());
        if (c.kind != claims::Kind::Band) {
            EXPECT_FALSE(c.references.empty()) << c.id;
        }
    }
}

// ---------------------------------------------------------------------------
// Baseline diff
// ---------------------------------------------------------------------------

TEST(Diff, IdenticalDocsMatch)
{
    results::ResultsDoc doc = sampleDoc();
    EXPECT_TRUE(claims::diff(doc, doc, 0.02, 0.02).empty());
}

TEST(Diff, DriftWithinToleranceMatches)
{
    results::ResultsDoc fresh = sampleDoc();
    results::ResultsDoc base = sampleDoc();
    base.set("TCM", "ws", 8.89 * 1.015); // inside rel-tol 0.02
    EXPECT_TRUE(claims::diff(fresh, base, 0.02, 0.02).empty());
}

TEST(Diff, PerturbedBaselineFails)
{
    results::ResultsDoc fresh = sampleDoc();
    results::ResultsDoc base = sampleDoc();
    base.set("TCM", "ws", 9.5);
    std::vector<std::string> lines = claims::diff(fresh, base, 0.02, 0.02);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("fig4/TCM/ws"), std::string::npos);
}

TEST(Diff, MissingMetricFlaggedBothWays)
{
    results::ResultsDoc fresh = sampleDoc();
    results::ResultsDoc base = sampleDoc();
    base.set("TCM", "extra", 1.0);   // baseline-only -> missing in fresh
    fresh.set("TCM", "novel", 2.0);  // fresh-only -> needs regold
    std::vector<std::string> lines = claims::diff(fresh, base, 0.02, 0.02);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("extra"), std::string::npos);
    EXPECT_NE(lines[1].find("regold"), std::string::npos);
}

TEST(Diff, ScaleMismatchIsReported)
{
    results::ResultsDoc fresh = sampleDoc();
    results::ResultsDoc base = sampleDoc();
    base.measure = 100'000;
    std::vector<std::string> lines = claims::diff(fresh, base, 0.02, 0.02);
    ASSERT_FALSE(lines.empty());
    EXPECT_NE(lines[0].find("scale"), std::string::npos);
}

TEST(Diff, RunProvenanceIsNeverDiffed)
{
    // The "run" block records who/how (wall time, host threads, build
    // type, kernel, self-profile) — facts about the machine that
    // produced the document, not about the simulated system. Two docs
    // may disagree on every one of them and still match: only bench
    // identity, scale, and result rows are compared, so CI baselines
    // recorded on different hardware or with TCMSIM_PROFILE never fail
    // the gate.
    results::ResultsDoc fresh = sampleDoc();
    results::ResultsDoc base = sampleDoc();
    fresh.wallSeconds = 12.5;
    base.wallSeconds = 900.0;
    fresh.hostThreads = 64;
    base.hostThreads = 2;
    fresh.buildType = "Release";
    base.buildType = "Debug";
    fresh.cycleSkip = 1;
    base.cycleSkip = 0;
    fresh.profileMetrics = {{"ctrl_tick_ms", 123.0}, {"skips", 7.0}};
    base.profileMetrics = {{"ctrl_tick_ms", 99999.0}};
    EXPECT_TRUE(claims::diff(fresh, base, 0.02, 0.02).empty());
    EXPECT_TRUE(claims::diff(base, fresh, 0.02, 0.02).empty());
}

TEST(ResultsDoc, RunProvenanceRoundTripsWithStableKeyOrder)
{
    results::ResultsDoc doc = sampleDoc();
    doc.wallSeconds = 3.25;
    doc.hostThreads = 16;
    doc.buildType = "Release";
    doc.cycleSkip = 1;
    doc.profileMetrics = {{"ctrl_tick_ms", 12.5}, {"skips", 42.0}};

    std::string json = doc.toJson();
    // Schema-stable order inside the run block, so committed baselines
    // do not churn when regenerated.
    std::size_t pWall = json.find("\"wall_seconds\"");
    std::size_t pHost = json.find("\"host_threads\"");
    std::size_t pBuild = json.find("\"build_type\"");
    std::size_t pSkip = json.find("\"cycle_skip\"");
    std::size_t pProf = json.find("\"profile\"");
    ASSERT_NE(pWall, std::string::npos);
    ASSERT_NE(pHost, std::string::npos);
    ASSERT_NE(pBuild, std::string::npos);
    ASSERT_NE(pSkip, std::string::npos);
    ASSERT_NE(pProf, std::string::npos);
    EXPECT_LT(pWall, pHost);
    EXPECT_LT(pHost, pBuild);
    EXPECT_LT(pBuild, pSkip);
    EXPECT_LT(pSkip, pProf);
    EXPECT_NE(json.find("\"cycle_skip\": true"), std::string::npos);

    results::ResultsDoc back = results::ResultsDoc::fromJson(json);
    EXPECT_EQ(back.hostThreads, 16);
    EXPECT_EQ(back.buildType, "Release");
    EXPECT_EQ(back.cycleSkip, 1);
    ASSERT_EQ(back.profileMetrics.size(), 2u);
    EXPECT_EQ(back.profileMetrics[0].first, "ctrl_tick_ms");
    EXPECT_EQ(back.profileMetrics[0].second, 12.5);
    EXPECT_EQ(back.profileMetrics[1].first, "skips");
    EXPECT_EQ(back.profileMetrics[1].second, 42.0);

    // A document with no provenance at all emits no run block.
    results::ResultsDoc bare = sampleDoc();
    EXPECT_EQ(bare.toJson().find("\"run\""), std::string::npos);
}
