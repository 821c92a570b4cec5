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
 *  2. Execution-mode bit-identity: the fully naive reference (per-cycle
 *     loop, controller idle skip off) and the default kernel produce
 *     identical per-thread IPCs and byte-identical telemetry, on a
 *     mixed system, a light DDR3 system and tight-drain saturated DDR2
 *     and DDR4 systems.
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
#include "scratch.hpp"

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
        counters.resize(kThreads);
        mem::Wiring wiring{.numThreads = kThreads,
                           .numChannels = kChannels,
                           .banksPerChannel = timing.banksPerChannel,
                           .coreCounters = &counters};
        for (ChannelId ch = 0; ch < kChannels; ++ch) {
            mcs.push_back(std::make_unique<mem::MemoryController>(
                ch, timing, mem::ControllerParams{}, *policy));
            wiring.readQueues.push_back(&mcs.back()->readQueue());
        }
        policy->configure(wiring);
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
// Contract 2: bit-identical results across the fully naive reference and
// the default kernel.
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

/** A system every policy runs under both execution modes. */
struct ModeSystem
{
    const char *tag;
    const char *protocol;
    double intensity;
    bool tightDrain; //!< 8-entry write queue, 6:2 watermarks
};

/**
 * The default mixed system; a light one with no memory-intensive
 * thread, where most submissions land inside the kernel's core-only
 * stretches rather than at executed cycles; and a saturated one whose
 * tight write queue latches and unlatches write drains all run long,
 * on DDR2 and on DDR4 (bank groups): drain hysteresis is controller
 * state that only a scan re-tests.
 */
constexpr ModeSystem kModeSystems[] = {
    {"mixed", "ddr2-800", 0.5, false},
    {"light", "ddr3-1600", 0.0, false},
    {"drain_ddr2", "ddr2-800", 1.0, true},
    {"drain_ddr4", "ddr4-2400", 1.0, true},
};

/**
 * One run of @p policyName on @p system. @p naive runs the reference:
 * the per-cycle loop with a controller that scans at every free command
 * slot (idleSkip off), so neither the kernel's horizons nor the
 * controller's scan skipping is trusted. Otherwise the defaults run:
 * the cycle-skip kernel with idle skip on.
 */
ModeResult
runMode(const std::string &policyName, const ModeSystem &system, bool naive,
        const std::string &tag)
{
    sim::SystemConfig config;
    config.numCores = 6;
    config.numChannels = 2;
    EXPECT_EQ(config.selectProtocol(system.protocol), "");
    if (system.tightDrain) {
        config.controller.writeQueueCap = 8;
        config.controller.writeDrain.highWatermark = 6;
        config.controller.writeDrain.lowWatermark = 2;
    }
    config.cycleSkip = !naive;
    config.controller.idleSkip = !naive;
    config.telemetry.enabled = true;
    config.telemetry.sampleInterval = 5'000;

    sched::SpecLookup lookup = sched::specByName(policyName);
    EXPECT_TRUE(lookup.ok) << lookup.error;
    lookup.spec.scaleToRun(70'000);

    auto mix = workload::randomMix(6, system.intensity, /*seed=*/42);
    sim::Simulator sim(config, mix, lookup.spec, /*seed=*/13);

    telemetry::TelemetrySink sink(config.telemetry);
    sim.attach({.telemetry = &sink});

    sim.run(/*warmup=*/10'000, /*measure=*/60'000);

    ModeResult r;
    for (ThreadId t = 0; t < sim.numThreads(); ++t)
        r.ipc.push_back(sim.measuredIpc(t));

    std::filesystem::path path =
        test::scratchPath("conformance_" + tag + ".jsonl");
    sink.writeJsonl(path.string());
    r.telemetry = readFile(path.string());
    std::filesystem::remove(path);
    return r;
}

} // namespace

TEST_P(PolicyConformance, ExecutionModesAreBitIdentical)
{
    const std::string name = paramName(
        testing::TestParamInfo<std::string>(GetParam(), 0));

    for (const ModeSystem &system : kModeSystems) {
        const std::string tag = name + "_" + system.tag;
        SCOPED_TRACE(tag);
        // The fully naive reference the default kernel must hit.
        ModeResult oracle = runMode(GetParam(), system, /*naive=*/true,
                                    tag + "_oracle");
        ASSERT_FALSE(oracle.ipc.empty());
        for (double ipc : oracle.ipc)
            ASSERT_GT(ipc, 0.0);

        ModeResult skip = runMode(GetParam(), system, /*naive=*/false,
                                  tag + "_skip");
        ASSERT_EQ(oracle.ipc.size(), skip.ipc.size());
        for (std::size_t t = 0; t < oracle.ipc.size(); ++t)
            EXPECT_EQ(oracle.ipc[t], skip.ipc[t]) << "thread " << t;
        EXPECT_EQ(oracle.telemetry, skip.telemetry)
            << "telemetry stream diverged";
    }
}

INSTANTIATE_TEST_SUITE_P(Registry, PolicyConformance,
                         testing::ValuesIn(sched::policyNames()),
                         paramName);
