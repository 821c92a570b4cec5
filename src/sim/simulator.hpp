/**
 * @file
 * Whole-system simulator: cores + controllers + scheduler.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/core.hpp"
#include "dram/command.hpp"
#include "dram/protocol_checker.hpp"
#include "mem/controller.hpp"
#include "prof/profiler.hpp"
#include "sched/factory.hpp"
#include "sched/tcm/monitor.hpp"
#include "sim/system_config.hpp"
#include "telemetry/sampler.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic_trace.hpp"

namespace tcm::sim {

/**
 * The passive observers of one run, attached in one call
 * (Simulator::attach). Each must outlive the Simulator. None feeds back
 * into simulated state: results, command streams and telemetry bytes
 * are bit-identical with any subset attached (tests/test_prof,
 * ObserverPurity).
 */
struct Observers
{
    /** Every controller's DRAM command stream (trace recording,
     *  auditing), after SystemConfig::protocolCheck's checker. The
     *  `{}` keeps GCC's -Wmissing-field-initializers quiet when a
     *  designated initializer omits this member. */
    std::vector<dram::CommandObserver *> commands{};

    /**
     * In-run telemetry: scheduler-decision events, per-read lifecycle
     * breakdowns, and the interval sampler (armed from the attach
     * cycle when the sink's sampleInterval > 0).
     */
    telemetry::TelemetrySink *telemetry = nullptr;

    /**
     * Self-profiler of the *simulator*, never of the simulated system:
     * wall-clock phase timers, cycle-skip horizon attribution and
     * per-core regime occupancy. With telemetry also attached, each
     * sample point pushes a cumulative "simulator" sample, rendered as
     * its own lane in the Chrome trace output.
     */
    prof::Profiler *profiler = nullptr;
};

/**
 * Builds and runs one multiprogrammed simulation: one Core per thread
 * profile, one MemoryController per channel, one scheduling policy.
 */
class Simulator
{
  public:
    /** Measured memory behaviour of one thread (probe output). */
    struct BehaviorStats
    {
        double mpki = 0.0;
        double rbl = 0.0; //!< 0 unless the simulator has the probe
        double blp = 0.0; //!< 0 unless the simulator has the probe
        double ipc = 0.0;
    };

    /**
     * Build with synthetic clones of @p profiles.
     *
     * @param enableProbe build the behaviour probe, a system-wide
     *        ThreadBankMonitor every controller feeds from cycle 0
     *        (small runtime cost; needed by behavior(), telemetry
     *        behaviour gauges and the Table 4 bench)
     */
    Simulator(const SystemConfig &config,
              const std::vector<workload::ThreadProfile> &profiles,
              const sched::SchedulerSpec &spec, std::uint64_t seed,
              bool enableProbe = false);

    /**
     * Build with caller-supplied instruction streams (e.g. FileTrace
     * replays), one per core. @p weights is per-thread OS weights
     * (empty = all 1).
     */
    Simulator(const SystemConfig &config,
              std::vector<std::unique_ptr<core::TraceSource>> traces,
              const sched::SchedulerSpec &spec, std::uint64_t seed,
              bool enableProbe = false, std::vector<int> weights = {});

    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Run @p warmup unmeasured cycles, then @p measure measured ones. */
    void run(Cycle warmup, Cycle measure);

    /** Advance the simulation by exactly @p cycles (incremental use). */
    void step(Cycle cycles);

    /** Mark the beginning of the measurement window. */
    void beginMeasurement();

    int numThreads() const { return static_cast<int>(cores_.size()); }
    Cycle now() const { return now_; }

    /** IPC of @p t over the measurement window. */
    double measuredIpc(ThreadId t) const;

    /** Measured MPKI/RBL/BLP/IPC of @p t (requires enableProbe). */
    BehaviorStats behavior(ThreadId t) const;

    mem::SchedulerPolicy &scheduler() { return *policy_; }
    const mem::SchedulerPolicy &scheduler() const { return *policy_; }
    const mem::ControllerStats &controllerStats(ChannelId ch) const;

    /** Commands channel @p ch issued since the measurement began. */
    dram::CommandCounts commandCounts(ChannelId ch) const;

    /** Read-latency distributions of channel @p ch (measurement window). */
    const mem::LatencyTracker &latency(ChannelId ch) const;

    const SystemConfig &config() const { return config_; }

    const std::vector<mem::CoreCounters> &counters() const { return counters_; }

    /**
     * Attach @p observers to every controller, the scheduler and the
     * stepping loop. Command observers append to those already
     * attached; a non-null sink or profiler takes its slot. Call before
     * stepping.
     */
    void attach(const Observers &observers);

    /** attach() with only @p profiler. */
    void
    attachProfiler(prof::Profiler *profiler)
    {
        attach({.profiler = profiler});
    }

    /**
     * The protocol auditor, present when SystemConfig::protocolCheck was
     * set. Call its finalize(now()) once the run is over, then read the
     * verdict.
     */
    dram::ProtocolChecker *protocolChecker() { return checker_.get(); }
    const dram::ProtocolChecker *
    protocolChecker() const
    {
        return checker_.get();
    }

  private:
    /** Shared construction tail once traces exist. */
    void init(std::vector<std::unique_ptr<core::TraceSource>> traces,
              const sched::SchedulerSpec &spec, std::uint64_t seed,
              bool enableProbe, const std::vector<int> &weights);

    /** Hand every controller its current observer set. */
    void observeControllers();

    /** @{ Cumulative gauges snapshotted at telemetry sample points. */
    std::vector<telemetry::ThreadGauges> threadGauges();
    std::vector<telemetry::ChannelGauges> channelGauges() const;
    /** @} */

    /** Emit one interval sample and re-arm the sampling clock. */
    void sampleTelemetry();

    /**
     * One fully simulated cycle, in canonical component order: the
     * scheduler, every controller (delivering its completions), then
     * every core. A core provably inside a silent regime advances by
     * the O(1) closed form instead of a full tick (bit-identical by the
     * regime contract, see Core::silentSpan), with fresh regimes probed
     * up to @p regimeCap cycles ahead and cached in coreSpan_. A
     * @p regimeCap of 0 opens no regime, so every core ticks: the
     * per-cycle oracle.
     */
    void executeCycle(Cycle now, Cycle regimeCap);

    /**
     * Earliest cycle >= @p now at which any component other than a core
     * could act (conservative minimum over scheduler, telemetry clock,
     * and every controller), clamped to [@p now, @p end]. @p src is set
     * to which subsystem's horizon won (ties keep the earlier-listed
     * source; a low clamp keeps the cutting source) — profiler
     * attribution only, never consulted by simulation logic.
     */
    Cycle horizonAt(Cycle now, Cycle end, prof::HorizonSource &src) const;

    SystemConfig config_;
    std::unique_ptr<mem::SchedulerPolicy> policy_;
    std::unique_ptr<sched::ThreadBankMonitor> probe_;
    std::unique_ptr<dram::ProtocolChecker> checker_;
    std::vector<std::unique_ptr<core::TraceSource>> traces_;
    std::vector<std::unique_ptr<mem::MemoryController>> controllers_;
    std::vector<std::unique_ptr<core::Core>> cores_;
    std::vector<mem::CoreCounters> counters_;

    std::vector<dram::CommandObserver *> commandObservers_;
    telemetry::TelemetrySink *telemetry_ = nullptr;
    std::unique_ptr<telemetry::IntervalSampler> sampler_;
    Cycle telemetrySampleAt_ = kCycleNever;
    prof::Profiler *prof_ = nullptr;

    Cycle now_ = 0;
    Cycle measureStart_ = 0;
    /** Per-core remaining silent-regime span (cycle-skip scratch). */
    std::vector<Cycle> coreSpan_;
    std::vector<std::uint64_t> baseInstructions_;
    std::vector<std::uint64_t> baseMisses_;
};

} // namespace tcm::sim
