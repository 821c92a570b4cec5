/**
 * @file
 * Google-benchmark microbenchmarks of the simulator itself: scheduler
 * decision cost, monitor hook cost, and end-to-end simulation speed.
 * These are engineering benchmarks (cycles/second of the simulator),
 * not paper results.
 */

#include <algorithm>
#include <thread>

#include <benchmark/benchmark.h>

#include "common/random.hpp"
#include "sched/tcm/monitor.hpp"
#include "sched/tcm/shuffle.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "workload/mixes.hpp"

namespace {

using namespace tcm;

void
BM_SimulatorCyclesPerSecond(benchmark::State &state)
{
    sim::SystemConfig config;
    config.numCores = static_cast<int>(state.range(0));
    auto mix = workload::randomMix(config.numCores, 0.5, 7);
    sched::SchedulerSpec spec = sched::SchedulerSpec::tcmSpec();
    spec.scaleToRun(1'000'000);
    sim::Simulator sim(config, mix, spec, 1);
    sim.step(10'000); // warm structures

    for (auto _ : state)
        sim.step(10'000);
    state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SimulatorCyclesPerSecond)->Arg(4)->Arg(24)
    ->Unit(benchmark::kMillisecond);

void
BM_SchedulerComparisonLoop(benchmark::State &state)
{
    // End-to-end controller tick cost under saturation: FR-FCFS vs TCM.
    dram::TimingParams timing = dram::TimingParams::ddr2_800();
    sched::SchedulerSpec spec = state.range(0) == 0
                                    ? sched::SchedulerSpec::frfcfs()
                                    : sched::SchedulerSpec::tcmSpec();
    auto policy = sched::makeScheduler(spec, 1);
    policy->configure(24, 1, timing.banksPerChannel);
    std::vector<mem::CoreCounters> counters(24);
    policy->setCoreCounters(&counters);
    mem::MemoryController mc(0, timing, mem::ControllerParams{}, *policy);
    policy->attachQueue(0, &mc);

    Pcg32 rng(3);
    Cycle now = 0;
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i, ++now) {
            if (mc.canAcceptRead()) {
                mc.submitRead(static_cast<ThreadId>(rng.nextBelow(24)),
                              now, static_cast<BankId>(rng.nextBelow(4)),
                              static_cast<RowId>(rng.nextBelow(64)),
                              static_cast<ColId>(rng.nextBelow(64)), now);
            }
            policy->tick(now);
            mc.tick(now);
            mc.completions().clear();
        }
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerComparisonLoop)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void
BM_ProtocolCheckerOverhead(benchmark::State &state)
{
    // Full-system simulation speed with the protocol checker detached
    // (Arg 0) vs attached (Arg 1). With it off the observer list is
    // empty and the channel skips notification entirely, so Arg 0 must
    // match BM_SimulatorCyclesPerSecond.
    sim::SystemConfig config;
    config.numCores = 8;
    config.numChannels = 1;
    config.protocolCheck = state.range(0) != 0;
    auto mix = workload::randomMix(config.numCores, 1.0, 7);
    sched::SchedulerSpec spec = sched::SchedulerSpec::tcmSpec();
    spec.scaleToRun(1'000'000);
    sim::Simulator sim(config, mix, spec, 1);
    sim.step(10'000); // warm structures

    for (auto _ : state)
        sim.step(10'000);
    state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_ProtocolCheckerOverhead)->Arg(0)->Arg(1);

void
BM_TelemetryOverhead(benchmark::State &state)
{
    // Full-system simulation speed with telemetry detached (Arg 0) vs
    // fully attached (Arg 1: behaviour probe + interval sampler +
    // decision trace + lifecycle sink). Detached, the hot loop's only
    // telemetry artifact is one never-taken compare per cycle, so Arg 0
    // must stay within noise of BM_SimulatorCyclesPerSecond.
    const bool on = state.range(0) != 0;
    sim::SystemConfig config;
    config.numCores = 8;
    config.numChannels = 1;
    auto mix = workload::randomMix(config.numCores, 1.0, 7);
    sched::SchedulerSpec spec = sched::SchedulerSpec::tcmSpec();
    spec.scaleToRun(1'000'000);
    sim::Simulator sim(config, mix, spec, 1, on);
    telemetry::TelemetrySink sink;
    if (on)
        sim.attach({.telemetry = &sink});
    sim.step(10'000); // warm structures

    for (auto _ : state)
        sim.step(10'000);
    state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_TelemetryOverhead)->Arg(0)->Arg(1);

void
BM_ProfilerOverhead(benchmark::State &state)
{
    // Full-system simulation speed with the self-profiler detached
    // (Arg 0) vs attached (Arg 1). Detached, every instrumentation site
    // is a null-pointer branch with no clock read, so Arg 0 must stay
    // within noise of BM_SimulatorCyclesPerSecond; the Arg 1 delta is
    // the real cost of phase timers + horizon attribution + regime
    // counting.
    const bool on = state.range(0) != 0;
    sim::SystemConfig config;
    config.numCores = 8;
    config.numChannels = 1;
    auto mix = workload::randomMix(config.numCores, 1.0, 7);
    sched::SchedulerSpec spec = sched::SchedulerSpec::tcmSpec();
    spec.scaleToRun(1'000'000);
    sim::Simulator sim(config, mix, spec, 1);
    prof::Profiler profiler;
    if (on)
        sim.attach({.profiler = &profiler});
    sim.step(10'000); // warm structures

    for (auto _ : state)
        sim.step(10'000);
    state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_ProfilerOverhead)->Arg(0)->Arg(1);

void
BM_MonitorHooks(benchmark::State &state)
{
    sched::ThreadBankMonitor mon;
    mon.configure(24, 16, 4);
    mem::Request req;
    req.thread = 3;
    req.channel = 1;
    req.bank = 2;
    Cycle now = 0;
    for (auto _ : state) {
        req.row = static_cast<RowId>(now % 999);
        mon.onArrival(req, now);
        mon.onDepart(req, now + 50);
        now += 60;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MonitorHooks);

void
BM_InsertionShuffleStep(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    std::vector<ThreadId> threads(n);
    std::vector<double> nice(n);
    std::vector<int> weights(n, 1);
    for (int i = 0; i < n; ++i) {
        threads[i] = i;
        nice[i] = i * 0.5;
    }
    Pcg32 rng(1);
    sched::ShuffleState shuffle(threads, nice, weights,
                                sched::ShuffleMode::Insertion, &rng);
    for (auto _ : state) {
        shuffle.step();
        benchmark::DoNotOptimize(shuffle.order().data());
    }
}
BENCHMARK(BM_InsertionShuffleStep)->Arg(8)->Arg(24);

void
BM_ParallelSweep(benchmark::State &state)
{
    // Sweep-layer throughput (workloads/second) at a given pool size.
    // items_per_second at Arg(hardware_concurrency) over Arg(1) is the
    // parallel-runner speedup tracked in the perf trajectory.
    const int jobs = static_cast<int>(state.range(0));
    sim::SystemConfig config;
    config.numCores = 4;
    config.numChannels = 2;
    sim::ExperimentScale scale;
    scale.warmup = 2'000;
    scale.measure = 30'000;
    auto workloads = workload::workloadSet(16, config.numCores, 0.5, 42);

    // Prewarm once so the timed region measures the sweep itself, not
    // the alone-IPC denominators.
    sim::AloneIpcCache cache(config, scale.warmup, scale.measure);
    {
        ThreadPool pool(jobs);
        cache.prewarm(workloads, pool);
    }

    for (auto _ : state) {
        sim::AggregateResult agg =
            sim::evaluateSet(config, workloads,
                             sched::SchedulerSpec::tcmSpec(), scale, cache,
                             1, jobs);
        benchmark::DoNotOptimize(agg.weightedSpeedup.mean());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(workloads.size()));
}
BENCHMARK(BM_ParallelSweep)
    ->Arg(1)
    ->Arg(static_cast<int>(
        std::max(2u, std::thread::hardware_concurrency())))
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace

BENCHMARK_MAIN();
