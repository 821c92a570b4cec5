/**
 * @file
 * Cross-policy conformance suite: every factory-registered scheduler
 * must honor the fast-path contracts the event-horizon kernel is built
 * on. The suite iterates sched::policyNames(), so a policy added to the
 * factory is enrolled automatically — forgetting to test a new policy is
 * impossible.
 *
 * Two contracts are checked per policy:
 *  1. nextEventAt never under-predicts: against a per-cycle oracle rig,
 *     whenever tick() changes observable state (rank epoch, rank
 *     vector, or any prioritization knob), the prediction queried just
 *     before that tick must have said "event at now". Rank/knob
 *     mutations — in ticks or hooks — must also bump the rank epoch
 *     (the controllers' snapshot-cache discipline).
 *  2. Execution-mode bit-identity: the per-cycle oracle and the
 *     cycle-skip kernel produce identical per-thread IPCs and
 *     byte-identical telemetry.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "mem/controller.hpp"
#include "sched/factory.hpp"
#include "sim/simulator.hpp"
#include "telemetry/sink.hpp"
#include "workload/mixes.hpp"

using namespace tcm;

namespace {

std::string
paramName(const testing::TestParamInfo<std::string> &info)
{
    std::string n = info.param;
    for (char &c : n)
        if (c == '-')
            c = '_';
    return n;
}

class PolicyConformance : public testing::TestWithParam<std::string>
{
  protected:
    /** Fresh instance of the parameterized policy, time-scaled so its
     *  quanta/intervals actually fire within @p runCycles. */
    std::unique_ptr<mem::SchedulerPolicy>
    makePolicy(Cycle runCycles)
    {
        sched::SpecLookup lookup = sched::specByName(GetParam());
        EXPECT_TRUE(lookup.ok) << lookup.error;
        lookup.spec.scaleToRun(runCycles);
        return sched::makeScheduler(lookup.spec, /*seed=*/21);
    }
};

/** Everything a controller can observe about a policy: the rank epoch,
 *  the full rank vector, and the prioritization knobs. */
struct Snapshot
{
    std::uint64_t epoch = 0;
    Cycle aging = 0;
    bool rowHitAboveRank = false;
    bool useRowHit = false;
    std::vector<int> ranks;

    static Snapshot
    of(const mem::SchedulerPolicy &p, int channels, int threads)
    {
        Snapshot s;
        s.epoch = p.rankEpoch();
        s.aging = p.agingThreshold();
        s.rowHitAboveRank = p.rowHitAboveRank();
        s.useRowHit = p.useRowHit();
        s.ranks.reserve(static_cast<std::size_t>(channels) * threads);
        for (ChannelId ch = 0; ch < channels; ++ch)
            for (ThreadId t = 0; t < threads; ++t)
                s.ranks.push_back(p.rankOf(ch, t));
        return s;
    }

    bool
    visibleEquals(const Snapshot &o) const
    {
        return aging == o.aging && rowHitAboveRank == o.rowHitAboveRank &&
               useRowHit == o.useRowHit && ranks == o.ranks;
    }

    bool
    equals(const Snapshot &o) const
    {
        return epoch == o.epoch && visibleEquals(o);
    }
};

/** Per-cycle oracle rig: the policy driving two real controllers under
 *  randomized skewed traffic, stepped strictly one cycle at a time in
 *  canonical order (policy tick, then controllers channel 0..N-1). */
struct OracleRig
{
    static constexpr int kThreads = 4;
    static constexpr int kChannels = 2;

    dram::TimingParams timing = dram::TimingParams::ddr2_800();
    std::unique_ptr<mem::SchedulerPolicy> policy;
    std::vector<std::unique_ptr<mem::MemoryController>> mcs;
    std::vector<mem::CoreCounters> counters;
    Pcg32 rng{77};
    std::uint64_t nextId = 1;

    explicit OracleRig(std::unique_ptr<mem::SchedulerPolicy> p)
        : policy(std::move(p))
    {
        policy->configure(kThreads, kChannels, timing.banksPerChannel);
        counters.resize(kThreads);
        policy->setCoreCounters(&counters);
        for (ChannelId ch = 0; ch < kChannels; ++ch) {
            mcs.push_back(std::make_unique<mem::MemoryController>(
                ch, timing, mem::ControllerParams{}, *policy));
            policy->attachQueue(ch, mcs.back().get());
        }
    }

    /** Maybe inject reads this cycle (skewed toward thread 0 so
     *  streak/service-driven policies actually change ranks). */
    void
    inject(Cycle now)
    {
        for (ChannelId ch = 0; ch < kChannels; ++ch) {
            if (!rng.nextBool(0.25) || !mcs[ch]->canAcceptRead())
                continue;
            ThreadId t = rng.nextBool(0.5)
                             ? 0
                             : static_cast<ThreadId>(
                                   rng.nextBelow(kThreads));
            mcs[ch]->submitRead(
                t, nextId++,
                static_cast<BankId>(rng.nextBelow(timing.banksPerChannel)),
                static_cast<RowId>(rng.nextBelow(4)),
                static_cast<ColId>(rng.nextBelow(timing.colsPerRow)), now);
            // Feed the counters so quantum-scored policies (Tournament)
            // see non-degenerate instruction deltas.
            counters[t].instructions += 50;
            counters[t].readMisses += 1;
        }
    }

    /** Controllers' portion of one canonical cycle. */
    void
    tickControllers(Cycle now)
    {
        for (auto &mc : mcs) {
            mc->tick(now);
            mc->completions().clear();
        }
    }
};

} // namespace

// ---------------------------------------------------------------------------
// Contract 1: nextEventAt vs the per-cycle oracle, plus rank-epoch
// discipline for every rank/knob mutation.
// ---------------------------------------------------------------------------

TEST_P(PolicyConformance, NextEventAtNeverUnderPredicts)
{
    constexpr Cycle kCycles = 60'000;
    OracleRig rig(makePolicy(kCycles));

    std::uint64_t tickEvents = 0;
    for (Cycle now = 0; now < kCycles; ++now) {
        rig.inject(now);

        // The prediction the simulator would act on at this cycle: every
        // hook from cycle now-1 has been delivered, none from now yet.
        const Cycle ne = rig.policy->nextEventAt(now);

        Snapshot before = Snapshot::of(*rig.policy, OracleRig::kChannels,
                                       OracleRig::kThreads);
        rig.policy->tick(now);
        Snapshot afterTick = Snapshot::of(*rig.policy, OracleRig::kChannels,
                                          OracleRig::kThreads);

        if (!afterTick.equals(before)) {
            ++tickEvents;
            // tick() did something observable, so the pre-tick query had
            // to predict an event no later than now.
            ASSERT_LE(ne, now)
                << GetParam() << ": tick at " << now
                << " changed state but nextEventAt said " << ne;
        }
        if (!afterTick.visibleEquals(before)) {
            ASSERT_NE(afterTick.epoch, before.epoch)
                << GetParam() << ": rank/knob change at tick " << now
                << " without a rank-epoch bump";
        }

        rig.tickControllers(now);
        Snapshot afterHooks = Snapshot::of(*rig.policy, OracleRig::kChannels,
                                           OracleRig::kThreads);
        // Hook-driven mutations are allowed (the simulator re-queries
        // every executed cycle) but must still respect epoch discipline.
        if (!afterHooks.visibleEquals(afterTick)) {
            ASSERT_NE(afterHooks.epoch, afterTick.epoch)
                << GetParam() << ": rank/knob change in hooks at " << now
                << " without a rank-epoch bump";
        }
    }
    // FR-FCFS-family policies legitimately never have timed events; every
    // adaptive policy must have fired at least once or the run above
    // proved nothing.
    if (rig.policy->nextEventAt(kCycles) != kCycleNever) {
        EXPECT_GT(tickEvents, 0u)
            << GetParam() << ": no timed event fired in " << kCycles
            << " cycles — scale the rig so the contract is exercised";
    }
}

// ---------------------------------------------------------------------------
// Contract 2: bit-identical results across the per-cycle oracle and the
// cycle-skip kernel.
// ---------------------------------------------------------------------------

namespace {

struct ModeResult
{
    std::vector<double> ipc;
    std::string telemetry;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

ModeResult
runMode(const std::string &policyName, bool cycleSkip, const std::string &tag)
{
    sim::SystemConfig config;
    config.numCores = 6;
    config.numChannels = 2;
    config.cycleSkip = cycleSkip;
    config.telemetry.enabled = true;
    config.telemetry.sampleInterval = 5'000;

    sched::SpecLookup lookup = sched::specByName(policyName);
    EXPECT_TRUE(lookup.ok) << lookup.error;
    lookup.spec.scaleToRun(70'000);

    auto mix = workload::randomMix(6, 0.5, /*seed=*/42);
    sim::Simulator sim(config, mix, lookup.spec, /*seed=*/13);

    telemetry::TelemetrySink sink(config.telemetry);
    sim.attachTelemetry(&sink);

    sim.run(/*warmup=*/10'000, /*measure=*/60'000);

    ModeResult r;
    for (ThreadId t = 0; t < sim.numThreads(); ++t)
        r.ipc.push_back(sim.measuredIpc(t));

    std::filesystem::path path = std::filesystem::temp_directory_path() /
                                 ("tcmsim_conformance_" + tag + ".jsonl");
    sink.writeJsonl(path.string());
    r.telemetry = readFile(path.string());
    std::filesystem::remove(path);
    return r;
}

} // namespace

TEST_P(PolicyConformance, ExecutionModesAreBitIdentical)
{
    std::string name = paramName(
        testing::TestParamInfo<std::string>(GetParam(), 0));

    // The per-cycle loop is the oracle the cycle-skip kernel must hit.
    ModeResult oracle = runMode(GetParam(), /*cycleSkip=*/false,
                                name + "_oracle");
    ASSERT_FALSE(oracle.ipc.empty());
    for (double ipc : oracle.ipc)
        ASSERT_GT(ipc, 0.0);

    ModeResult skip = runMode(GetParam(), /*cycleSkip=*/true, name + "_skip");
    ASSERT_EQ(oracle.ipc.size(), skip.ipc.size());
    for (std::size_t t = 0; t < oracle.ipc.size(); ++t)
        EXPECT_EQ(oracle.ipc[t], skip.ipc[t])
            << GetParam() << " thread " << t;
    EXPECT_EQ(oracle.telemetry, skip.telemetry)
        << GetParam() << ": telemetry stream diverged";
}

INSTANTIATE_TEST_SUITE_P(Registry, PolicyConformance,
                         testing::ValuesIn(sched::policyNames()),
                         paramName);
