/**
 * @file
 * Disk round-trip hardening for the persistent alone-IPC store
 * (sim/alone_cache.hpp): a saved store reloads bit-equal and serves
 * every lookup as a hit; every broken-store shape — missing file, bad
 * header, fingerprint mismatch (config or horizon), truncated body,
 * corrupted entry, missing count trailer — is rejected wholesale with
 * the cache left untouched, falling back to a clean recompute; and the
 * fingerprint moves with every behaviour-affecting configuration knob
 * while ignoring pure observers and bit-identity execution modes.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/alone_cache.hpp"
#include "sim/system_config.hpp"
#include "workload/mixes.hpp"
#include "scratch.hpp"

using namespace tcm;
namespace fs = std::filesystem;

namespace {

/** Small system so the alone runs stay fast. */
sim::SystemConfig
smallConfig()
{
    sim::SystemConfig config;
    config.numCores = 4;
    config.numChannels = 2;
    return config;
}

constexpr Cycle kWarmup = 2'000;
constexpr Cycle kMeasure = 10'000;

/** Fresh per-test scratch directory under the system temp dir. */
class AloneStoreTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = test::scratchPath(
            "alone_store_" + std::string(::testing::UnitTest::GetInstance()
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

    static std::string readFile(const std::string &p)
    {
        std::ifstream in(p, std::ios::binary);
        EXPECT_TRUE(in.good()) << "cannot read " << p;
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    }

    static void writeFile(const std::string &p, const std::string &text)
    {
        std::ofstream out(p, std::ios::binary | std::ios::trunc);
        out << text;
        ASSERT_TRUE(out.good()) << "cannot write " << p;
    }

    fs::path dir_;
};

/** A mix with several distinct profiles (full intensity = all MPKI>0). */
std::vector<workload::ThreadProfile>
someProfiles()
{
    return workload::randomMix(4, 1.0, 5);
}

} // namespace

TEST_F(AloneStoreTest, CountersTrackHitsAndMisses)
{
    sim::AloneIpcCache cache(smallConfig(), kWarmup, kMeasure);
    auto profiles = someProfiles();

    EXPECT_EQ(cache.lookups(), 0u);
    double first = cache.aloneIpc(profiles[0]);
    EXPECT_EQ(cache.lookups(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);

    double again = cache.aloneIpc(profiles[0]);
    EXPECT_EQ(again, first); // memo hit, bit-equal
    EXPECT_EQ(cache.lookups(), 2u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(AloneStoreTest, SaveLoadRoundTripIsBitEqualAndMissFree)
{
    sim::SystemConfig config = smallConfig();
    auto profiles = someProfiles();

    sim::AloneIpcCache writer(config, kWarmup, kMeasure);
    std::vector<double> computed;
    for (const auto &p : profiles)
        computed.push_back(writer.aloneIpc(p));
    ASSERT_GT(writer.size(), 0u);
    writer.saveToFile(path("store.cache"));

    sim::AloneIpcCache reader(config, kWarmup, kMeasure);
    sim::AloneIpcCache::LoadResult r =
        reader.loadFromFile(path("store.cache"));
    EXPECT_TRUE(r.ok) << r.message;
    EXPECT_EQ(r.loaded, writer.size());
    EXPECT_TRUE(r.message.empty());

    for (std::size_t i = 0; i < profiles.size(); ++i)
        EXPECT_EQ(reader.aloneIpc(profiles[i]), computed[i])
            << "loaded entry " << i << " not bit-equal";
    EXPECT_EQ(reader.misses(), 0u)
        << "a loaded store must serve every lookup without simulating";
    EXPECT_EQ(reader.hits(), reader.lookups());
}

TEST_F(AloneStoreTest, MissingFileIsCleanlyRejected)
{
    sim::AloneIpcCache cache(smallConfig(), kWarmup, kMeasure);
    sim::AloneIpcCache::LoadResult r =
        cache.loadFromFile(path("nope.cache"));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.loaded, 0u);
    EXPECT_FALSE(r.message.empty());
    EXPECT_EQ(cache.size(), 0u);
}

TEST_F(AloneStoreTest, ConfigFingerprintMismatchRejectsWholesale)
{
    sim::SystemConfig a = smallConfig();
    sim::AloneIpcCache writer(a, kWarmup, kMeasure);
    writer.aloneIpc(someProfiles()[0]);
    writer.saveToFile(path("store.cache"));

    sim::SystemConfig b = smallConfig();
    ASSERT_TRUE(b.selectProtocol("ddr3-1333").empty());
    sim::AloneIpcCache reader(b, kWarmup, kMeasure);
    sim::AloneIpcCache::LoadResult r =
        reader.loadFromFile(path("store.cache"));
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("fingerprint"), std::string::npos)
        << r.message;
    EXPECT_EQ(reader.size(), 0u) << "a rejected load must adopt nothing";
}

TEST_F(AloneStoreTest, HorizonFingerprintMismatchRejectsWholesale)
{
    sim::SystemConfig config = smallConfig();
    sim::AloneIpcCache writer(config, kWarmup, kMeasure);
    writer.aloneIpc(someProfiles()[0]);
    writer.saveToFile(path("store.cache"));

    sim::AloneIpcCache reader(config, kWarmup, 2 * kMeasure);
    sim::AloneIpcCache::LoadResult r =
        reader.loadFromFile(path("store.cache"));
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("fingerprint"), std::string::npos)
        << r.message;
    EXPECT_EQ(reader.size(), 0u);
}

TEST_F(AloneStoreTest, TruncatedStoreFallsBackToRecompute)
{
    sim::SystemConfig config = smallConfig();
    auto profiles = someProfiles();
    sim::AloneIpcCache writer(config, kWarmup, kMeasure);
    double expected = writer.aloneIpc(profiles[0]);
    writer.saveToFile(path("store.cache"));

    // Drop the "end <count>" trailer (the killed-writer shape an atomic
    // rename prevents, but a copied/truncated file can still exhibit).
    std::string text = readFile(path("store.cache"));
    std::size_t end = text.rfind("end ");
    ASSERT_NE(end, std::string::npos);
    writeFile(path("store.cache"), text.substr(0, end));

    sim::AloneIpcCache reader(config, kWarmup, kMeasure);
    sim::AloneIpcCache::LoadResult r =
        reader.loadFromFile(path("store.cache"));
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.message.empty());
    EXPECT_EQ(reader.size(), 0u);

    // The fallback path: recompute still produces the right value.
    EXPECT_EQ(reader.aloneIpc(profiles[0]), expected);
    EXPECT_EQ(reader.misses(), 1u);
}

TEST_F(AloneStoreTest, CorruptedEntryRejectsWholesale)
{
    sim::SystemConfig config = smallConfig();
    sim::AloneIpcCache writer(config, kWarmup, kMeasure);
    for (const auto &p : someProfiles())
        writer.aloneIpc(p);
    writer.saveToFile(path("store.cache"));

    // Mangle the first entry's IPC field into a non-number.
    std::string text = readFile(path("store.cache"));
    std::size_t entry = text.find("entry ");
    ASSERT_NE(entry, std::string::npos);
    std::size_t eol = text.find('\n', entry);
    std::size_t lastSpace = text.rfind(' ', eol);
    text.replace(lastSpace + 1, eol - lastSpace - 1, "bogus");
    writeFile(path("store.cache"), text);

    sim::AloneIpcCache reader(config, kWarmup, kMeasure);
    sim::AloneIpcCache::LoadResult r =
        reader.loadFromFile(path("store.cache"));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.loaded, 0u);
    EXPECT_EQ(reader.size(), 0u)
        << "no partial adoption from a corrupt store";
}

TEST_F(AloneStoreTest, WrongEntryCountTrailerRejectsWholesale)
{
    sim::SystemConfig config = smallConfig();
    sim::AloneIpcCache writer(config, kWarmup, kMeasure);
    for (const auto &p : someProfiles())
        writer.aloneIpc(p);
    writer.saveToFile(path("store.cache"));

    // Delete one entry line but leave the trailer count: the store now
    // lies about its own length, which must read as truncation.
    std::string text = readFile(path("store.cache"));
    std::size_t entry = text.find("entry ");
    ASSERT_NE(entry, std::string::npos);
    std::size_t eol = text.find('\n', entry);
    text.erase(entry, eol - entry + 1);
    writeFile(path("store.cache"), text);

    sim::AloneIpcCache reader(config, kWarmup, kMeasure);
    EXPECT_FALSE(reader.loadFromFile(path("store.cache")).ok);
    EXPECT_EQ(reader.size(), 0u);
}

TEST_F(AloneStoreTest, UnknownHeaderRejectsWholesale)
{
    writeFile(path("store.cache"), "tcmsim-alone-cache v999\n"
                                   "fingerprint 0000000000000000\n"
                                   "end 0\n");
    sim::AloneIpcCache cache(smallConfig(), kWarmup, kMeasure);
    sim::AloneIpcCache::LoadResult r =
        cache.loadFromFile(path("store.cache"));
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.message.empty());

    writeFile(path("garbage.cache"), "not a store at all\n");
    EXPECT_FALSE(cache.loadFromFile(path("garbage.cache")).ok);
    EXPECT_EQ(cache.size(), 0u);
}

TEST_F(AloneStoreTest, InMemoryEntriesWinOverTheStore)
{
    sim::SystemConfig config = smallConfig();
    auto profiles = someProfiles();

    sim::AloneIpcCache writer(config, kWarmup, kMeasure);
    double real = writer.aloneIpc(profiles[0]);
    writer.saveToFile(path("store.cache"));

    // Doctor the stored IPC to a sentinel value the simulation can never
    // produce, then load into a cache that already computed the truth.
    std::string text = readFile(path("store.cache"));
    std::size_t entry = text.find("entry ");
    ASSERT_NE(entry, std::string::npos);
    std::size_t eol = text.find('\n', entry);
    std::size_t lastSpace = text.rfind(' ', eol);
    text.replace(lastSpace + 1, eol - lastSpace - 1, "123456");
    // The trailer count is unchanged, so the doctored store still parses.
    writeFile(path("store.cache"), text);

    sim::AloneIpcCache reader(config, kWarmup, kMeasure);
    ASSERT_EQ(reader.aloneIpc(profiles[0]), real);
    sim::AloneIpcCache::LoadResult r =
        reader.loadFromFile(path("store.cache"));
    EXPECT_TRUE(r.ok) << r.message;
    EXPECT_EQ(reader.aloneIpc(profiles[0]), real)
        << "an already-computed entry must not be overwritten by a load";
}

// The referenced-by-name contract test (see the fingerprint() doc
// comment): every behaviour-affecting knob moves the fingerprint, every
// pure observer / bit-identity execution knob leaves it alone.
TEST(AloneCacheFingerprint, FingerprintCoversConfigKnobs)
{
    const sim::SystemConfig base = smallConfig();
    const std::uint64_t fp =
        sim::AloneIpcCache::fingerprint(base, kWarmup, kMeasure);

    // Deterministic across processes (it names on-disk stores).
    EXPECT_EQ(fp, sim::AloneIpcCache::fingerprint(base, kWarmup, kMeasure));

    // Run horizon.
    EXPECT_NE(fp,
              sim::AloneIpcCache::fingerprint(base, kWarmup + 1, kMeasure));
    EXPECT_NE(fp,
              sim::AloneIpcCache::fingerprint(base, kWarmup, kMeasure + 1));

    auto with = [&](auto mutate) {
        sim::SystemConfig c = base;
        mutate(c);
        return sim::AloneIpcCache::fingerprint(c, kWarmup, kMeasure);
    };

    // Behaviour-affecting knobs: each must move the hash.
    EXPECT_NE(fp, with([](sim::SystemConfig &c) { c.numCores = 8; }));
    EXPECT_NE(fp, with([](sim::SystemConfig &c) { c.numChannels = 1; }));
    EXPECT_NE(fp, with([](sim::SystemConfig &c) { c.mpkiScale = 0.5; }));
    EXPECT_NE(fp, with([](sim::SystemConfig &c) {
                  ASSERT_TRUE(c.selectProtocol("ddr3-1600").empty());
              }));
    EXPECT_NE(fp, with([](sim::SystemConfig &c) {
                  c.controller.pagePolicy = mem::PagePolicy::Closed;
              }));
    EXPECT_NE(fp, with([](sim::SystemConfig &c) {
                  c.controller.readQueueCap = 32;
              }));
    EXPECT_NE(fp, with([](sim::SystemConfig &c) {
                  c.core.windowSize = 64;
              }));
    EXPECT_NE(fp, with([](sim::SystemConfig &c) {
                  c.timing.refreshEnabled = !c.timing.refreshEnabled;
              }));

    // Pure observers and bit-identity execution modes: invariant (their
    // no-effect-on-results property is enforced by their own suites).
    EXPECT_EQ(fp, with([](sim::SystemConfig &c) { c.protocolCheck = true; }));
    EXPECT_EQ(fp, with([](sim::SystemConfig &c) {
                  c.telemetry.enabled = true;
              }));
    EXPECT_EQ(fp,
              with([](sim::SystemConfig &c) { c.profile.enabled = true; }));
    EXPECT_EQ(fp, with([](sim::SystemConfig &c) {
                  c.cycleSkip = !c.cycleSkip;
              }));
    EXPECT_EQ(fp, with([](sim::SystemConfig &c) {
                  c.controller.idleSkip = !c.controller.idleSkip;
              }));
}
