/**
 * @file
 * Interval-sampling contract (sim/sampling.hpp, DESIGN.md section 13):
 * window-chunked stepping is bit-identical to one contiguous run of the
 * same length, a sampled runWorkload is exactly the prefix-slice of the
 * full run's dynamics (scheduler time constants scaled to the FULL
 * measure), per-window RSE is populated for sampled runs only, and the
 * "W:K[:WARMUP]" spec parser accepts the documented grammar and rejects
 * everything else.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sched/factory.hpp"
#include "sim/experiment.hpp"
#include "sim/sampling.hpp"
#include "sim/simulator.hpp"
#include "workload/mixes.hpp"

using namespace tcm;

namespace {

sim::SystemConfig
smallConfig()
{
    sim::SystemConfig config;
    config.numCores = 6;
    config.numChannels = 2;
    return config;
}

sched::SchedulerSpec
specFor(const std::string &name)
{
    sched::SpecLookup lookup = sched::specByName(name);
    EXPECT_TRUE(lookup.ok) << lookup.error;
    return lookup.spec;
}

} // namespace

TEST(SamplingConfig, ParseAcceptsTheDocumentedGrammar)
{
    std::string err;
    sim::SamplingConfig c = sim::SamplingConfig::parse("15000:3", &err);
    EXPECT_TRUE(c.enabled) << err;
    EXPECT_EQ(c.window, 15'000u);
    EXPECT_EQ(c.windows, 3);
    EXPECT_EQ(c.warmup, 30'000u); // default warmup when omitted
    EXPECT_EQ(c.totalMeasure(), 45'000u);

    c = sim::SamplingConfig::parse("5000:4:10000", &err);
    EXPECT_TRUE(c.enabled) << err;
    EXPECT_EQ(c.window, 5'000u);
    EXPECT_EQ(c.windows, 4);
    EXPECT_EQ(c.warmup, 10'000u);
    EXPECT_EQ(c.describe(), "5000:4:10000");

    // describe() round-trips through parse().
    sim::SamplingConfig back =
        sim::SamplingConfig::parse(c.describe(), &err);
    EXPECT_TRUE(back.enabled);
    EXPECT_EQ(back.window, c.window);
    EXPECT_EQ(back.windows, c.windows);
    EXPECT_EQ(back.warmup, c.warmup);

    sim::SamplingConfig off;
    EXPECT_FALSE(off.enabled);
    EXPECT_EQ(off.describe(), "off");
}

TEST(SamplingConfig, ParseRejectsMalformedSpecs)
{
    const char *bad[] = {
        "",          // empty
        "15000",     // missing K
        "abc:3",     // non-numeric W
        "15000:x",   // non-numeric K
        "500:3",     // W below the floor (1000)
        "15000:0",   // K < 1
        "15000:3:z", // non-numeric warmup
        "15000:3:10000:9", // trailing field
        "-14000:3",        // negative W
        "14000:3:-5",      // negative warmup
        "+14000:3",        // explicit sign
        "18446744073709551615:2",     // W*K wraps
        "14000:3:18446744073709551615", // WARMUP + W*K wraps
    };
    for (const char *spec : bad) {
        std::string err;
        sim::SamplingConfig c = sim::SamplingConfig::parse(spec, &err);
        EXPECT_FALSE(c.enabled) << "accepted '" << spec << "'";
        EXPECT_FALSE(err.empty()) << "no diagnostic for '" << spec << "'";
    }
}

TEST(SamplingConfig, EffectiveHorizonSwitchesWithSampling)
{
    sim::ExperimentScale scale;
    scale.warmup = 50'000;
    scale.measure = 300'000;
    EXPECT_EQ(scale.effectiveWarmup(), 50'000u);
    EXPECT_EQ(scale.effectiveMeasure(), 300'000u);

    std::string err;
    scale.sampling = sim::SamplingConfig::parse("15000:3:20000", &err);
    ASSERT_TRUE(scale.sampling.enabled) << err;
    EXPECT_EQ(scale.effectiveWarmup(), 20'000u);
    EXPECT_EQ(scale.effectiveMeasure(), 45'000u);
}

/**
 * The load-bearing simulator property behind sampling: K windows of
 * step(W) must land the simulation in exactly the state one step(K*W)
 * does — the cycle-skip kernel's horizon clamp contract. Checked across
 * schedulers with very different decision cadences.
 */
TEST(Sampling, WindowChunkedSteppingIsBitIdentical)
{
    const Cycle warmup = 5'000;
    const Cycle window = 3'000;
    const int windows = 4;
    const sim::SystemConfig config = smallConfig();
    const auto mix = workload::randomMix(config.numCores, 1.0, 7);

    for (const char *name : {"frfcfs", "atlas", "tcm"}) {
        sched::SchedulerSpec spec = specFor(name);
        spec.scaleToRun(300'000); // full-run constants, both legs

        sim::Simulator contiguous(config, mix, spec, 11);
        contiguous.step(warmup);
        contiguous.beginMeasurement();
        contiguous.step(window * windows);

        sim::Simulator chunked(config, mix, spec, 11);
        chunked.step(warmup);
        chunked.beginMeasurement();
        for (int k = 0; k < windows; ++k)
            chunked.step(window);

        ASSERT_EQ(contiguous.now(), chunked.now()) << name;
        for (ThreadId t = 0; t < config.numCores; ++t)
            EXPECT_EQ(contiguous.measuredIpc(t), chunked.measuredIpc(t))
                << name << " thread " << t
                << ": chunked stepping diverged from contiguous";
    }
}

/**
 * A sampled runWorkload is the prefix-slice of the full run: same
 * shared IPCs as a manual simulation whose scheduler constants scale to
 * the FULL measure but which only executes the sampled horizon.
 */
TEST(Sampling, SampledRunIsAPrefixSliceOfTheFullRun)
{
    sim::SystemConfig config = smallConfig();
    sim::ExperimentScale scale;
    scale.warmup = 20'000;
    scale.measure = 100'000;
    std::string err;
    scale.sampling = sim::SamplingConfig::parse("3000:4:4000", &err);
    ASSERT_TRUE(scale.sampling.enabled) << err;

    const auto mix = workload::randomMix(config.numCores, 1.0, 7);
    sim::AloneIpcCache cache(config, scale.effectiveWarmup(),
                             scale.effectiveMeasure());
    sim::RunResult r = sim::runWorkload(config, mix, specFor("tcm"), scale,
                                        cache, 11);

    sched::SchedulerSpec ref = specFor("tcm");
    ref.scaleToRun(scale.measure); // FULL measure, not the sampled one
    sim::Simulator sim(config, mix, ref, 11);
    sim.step(scale.sampling.warmup);
    sim.beginMeasurement();
    sim.step(scale.sampling.totalMeasure());

    ASSERT_EQ(r.ipcShared.size(), mix.size());
    for (std::size_t t = 0; t < mix.size(); ++t)
        EXPECT_EQ(r.ipcShared[t], sim.measuredIpc(static_cast<ThreadId>(t)))
            << "thread " << t;
}

TEST(Sampling, RseIsPopulatedForSampledRunsOnly)
{
    sim::SystemConfig config = smallConfig();
    const auto mix = workload::randomMix(config.numCores, 1.0, 7);

    sim::ExperimentScale full;
    full.warmup = 4'000;
    full.measure = 12'000;
    {
        sim::AloneIpcCache cache(config, full.effectiveWarmup(),
                                 full.effectiveMeasure());
        sim::RunResult r = sim::runWorkload(config, mix, specFor("tcm"),
                                            full, cache, 11);
        EXPECT_TRUE(r.ipcRse.empty())
            << "full runs carry no window statistics";
    }

    sim::ExperimentScale sampled = full;
    sampled.measure = 100'000;
    std::string err;
    sampled.sampling = sim::SamplingConfig::parse("3000:4:4000", &err);
    ASSERT_TRUE(sampled.sampling.enabled) << err;
    {
        sim::AloneIpcCache cache(config, sampled.effectiveWarmup(),
                                 sampled.effectiveMeasure());
        sim::RunResult r = sim::runWorkload(config, mix, specFor("tcm"),
                                            sampled, cache, 11);
        ASSERT_EQ(r.ipcRse.size(), mix.size());
        for (std::size_t t = 0; t < r.ipcRse.size(); ++t) {
            EXPECT_GE(r.ipcRse[t], 0.0) << "thread " << t;
            EXPECT_LT(r.ipcRse[t], 10.0) << "thread " << t;
        }
        // Metrics computed from same-horizon ratios stay sane.
        EXPECT_GT(r.metrics.weightedSpeedup, 0.0);
        EXPECT_GT(r.metrics.maxSlowdown, 0.0);
        EXPECT_GT(r.metrics.harmonicSpeedup, 0.0);
    }
}

TEST(Sampling, SingleWindowRunsSkipTheRse)
{
    sim::SystemConfig config = smallConfig();
    const auto mix = workload::randomMix(config.numCores, 1.0, 7);
    sim::ExperimentScale scale;
    scale.warmup = 4'000;
    scale.measure = 100'000;
    std::string err;
    scale.sampling = sim::SamplingConfig::parse("6000:1:4000", &err);
    ASSERT_TRUE(scale.sampling.enabled) << err;

    sim::AloneIpcCache cache(config, scale.effectiveWarmup(),
                             scale.effectiveMeasure());
    sim::RunResult r = sim::runWorkload(config, mix, specFor("tcm"), scale,
                                        cache, 11);
    EXPECT_TRUE(r.ipcRse.empty())
        << "one window has no variance to report";
}
