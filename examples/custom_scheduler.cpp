/**
 * @file
 * Example: writing a custom memory scheduler against the public
 * SchedulerPolicy interface and racing it against TCM.
 *
 * The custom policy here is a tiny "bank-fair round-robin": every 10K
 * cycles it rotates a fixed thread priority order. It demonstrates the
 * three integration points a scheduler implementor uses:
 *
 *   1. configure()  - learn the system shape (one call, one mem::Wiring),
 *   2. tick()       - advance internal state once per cycle,
 *   3. setRanks()   - publish thread ranks the controller's fixed
 *                     prioritization engine (Algorithm 3) consumes; the
 *                     controllers re-read them after every call.
 *
 * Everything else — DRAM timing, row hits, write drains, starvation
 * tiers — is handled by the controller.
 */

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "metrics/metrics.hpp"
#include "sim/alone_cache.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "workload/mixes.hpp"

namespace {

using namespace tcm;

/** Rotate thread priorities every interval: simple, starvation-free. */
class RotatingPriority : public mem::SchedulerPolicy
{
  public:
    explicit RotatingPriority(Cycle interval) : interval_(interval) {}

    const char *name() const override { return "RotatingPriority"; }

    void
    configure(const mem::Wiring &wiring) override
    {
        mem::SchedulerPolicy::configure(wiring);
        rotation_.resize(numThreads_);
        std::iota(rotation_.begin(), rotation_.end(), 0);
    }

    void
    tick(Cycle now) override
    {
        if (now >= nextRotateAt_) {
            std::rotate(rotation_.begin(), rotation_.begin() + 1,
                        rotation_.end());
            setRanks(rotation_);
            nextRotateAt_ = now + interval_;
        }
    }

  private:
    Cycle interval_;
    Cycle nextRotateAt_ = 0;
    std::vector<int> rotation_; //!< rank per thread id
};

} // namespace

int
main()
{
    sim::SystemConfig config;
    sim::ExperimentScale scale = sim::ExperimentScale::fromEnv();
    sim::AloneIpcCache alone(config, scale.warmup, scale.measure);

    auto mix = workload::randomMix(config.numCores, 0.75, 9);

    // sim::Simulator builds its policy from a SchedulerSpec, so a policy
    // outside the factory is wired by hand below to show the full wiring.
    std::printf("%-18s %18s %15s\n", "scheduler", "weighted speedup",
                "max slowdown");

    // Reference points through the standard experiment driver.
    for (auto spec : {sched::SchedulerSpec::frfcfs(),
                      sched::SchedulerSpec::tcmSpec()}) {
        sim::RunResult r =
            sim::runWorkload(config, mix, spec, scale, alone, 3);
        std::printf("%-18s %18.2f %15.2f\n", spec.name(),
                    r.metrics.weightedSpeedup, r.metrics.maxSlowdown);
    }

    // Hand-wired simulation with the custom policy: the controllers
    // first, then one configure() call with everything the policy reads.
    RotatingPriority custom(10'000);
    std::vector<mem::CoreCounters> counters(config.numCores);
    mem::Wiring wiring{.numThreads = config.numCores,
                       .numChannels = config.numChannels,
                       .banksPerChannel = config.timing.banksPerChannel,
                       .coreCounters = &counters};

    std::vector<std::unique_ptr<mem::MemoryController>> controllers;
    std::vector<mem::MemoryController *> mcs;
    for (ChannelId ch = 0; ch < config.numChannels; ++ch) {
        controllers.push_back(std::make_unique<mem::MemoryController>(
            ch, config.timing, config.controller, custom));
        wiring.readQueues.push_back(&controllers.back()->readQueue());
        mcs.push_back(controllers.back().get());
    }
    custom.configure(wiring);

    std::vector<std::unique_ptr<workload::SyntheticTrace>> traces;
    std::vector<std::unique_ptr<core::Core>> cores;
    for (ThreadId t = 0; t < config.numCores; ++t) {
        traces.push_back(std::make_unique<workload::SyntheticTrace>(
            mix[t], config.geometry(), 1000 + t));
        cores.push_back(std::make_unique<core::Core>(
            t, config.core, *traces.back(), mcs, &counters[t]));
    }

    std::vector<std::uint64_t> base(config.numCores, 0);
    for (Cycle now = 0; now < scale.warmup + scale.measure; ++now) {
        if (now == scale.warmup)
            for (ThreadId t = 0; t < config.numCores; ++t)
                base[t] = counters[t].instructions;
        custom.tick(now);
        for (auto &mc : controllers) {
            mc->tick(now);
            for (const auto &c : mc->completions())
                cores[c.thread]->completeMiss(c.missId, c.readyAt);
            mc->completions().clear();
        }
        for (auto &core : cores)
            core->tick(now);
    }

    std::vector<double> ipcShared, ipcAlone;
    for (ThreadId t = 0; t < config.numCores; ++t) {
        ipcShared.push_back(
            static_cast<double>(counters[t].instructions - base[t]) /
            static_cast<double>(scale.measure));
        ipcAlone.push_back(alone.aloneIpc(mix[t]));
    }
    metrics::WorkloadMetrics m = metrics::computeMetrics(ipcAlone, ipcShared);
    std::printf("%-18s %18.2f %15.2f\n", custom.name(), m.weightedSpeedup,
                m.maxSlowdown);

    std::printf("\nRotatingPriority is starvation-free but thread-"
                "oblivious: decent fairness,\nno latency-cluster boost — "
                "compare its WS against TCM's.\n");
    return 0;
}
