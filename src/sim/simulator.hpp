/**
 * @file
 * Whole-system simulator: cores + controllers + scheduler.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/core.hpp"
#include "dram/energy.hpp"
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
 * Forwards controller observation hooks to both the real scheduling
 * policy and a set of behaviour-probe monitors, while delegating every
 * prioritization knob to the policy. Lets experiments measure a thread's
 * MPKI/RBL/BLP under any scheduler without touching the controller.
 */
class ProbePolicy : public mem::SchedulerPolicy
{
  public:
    explicit ProbePolicy(mem::SchedulerPolicy &inner) : inner_(&inner) {}

    const char *name() const override { return inner_->name(); }

    void
    configure(int numThreads, int numChannels, int banksPerChannel) override
    {
        mem::SchedulerPolicy::configure(numThreads, numChannels,
                                        banksPerChannel);
        inner_->configure(numThreads, numChannels, banksPerChannel);
        // A single global-bank monitor measures exact system-wide BLP.
        monitor_.configure(numThreads, numChannels * banksPerChannel,
                           banksPerChannel);
    }

    void
    attachQueue(ChannelId ch, mem::QueueAccess *queue) override
    {
        inner_->attachQueue(ch, queue);
    }

    void
    setCoreCounters(const std::vector<mem::CoreCounters> *counters) override
    {
        inner_->setCoreCounters(counters);
    }

    void
    setThreadWeights(const std::vector<int> &weights) override
    {
        inner_->setThreadWeights(weights);
    }

    void
    onArrival(const mem::Request &req, Cycle now) override
    {
        monitor_.onArrival(req, now);
        inner_->onArrival(req, now);
    }

    void
    onDepart(const mem::Request &req, Cycle now) override
    {
        monitor_.onDepart(req, now);
        inner_->onDepart(req, now);
    }

    void
    onCommand(const mem::Request &req, dram::CommandKind kind, Cycle now,
              Cycle occupancy) override
    {
        monitor_.addService(req.thread, occupancy);
        inner_->onCommand(req, kind, now, occupancy);
    }

    void tick(Cycle now) override { inner_->tick(now); }

    // Event-horizon plumbing: the probe itself is purely observational
    // (hook-driven), so the inner policy's horizon, lazy catch-up, and
    // rank epoch pass through untouched.
    Cycle nextEventAt(Cycle now) const override
    {
        return inner_->nextEventAt(now);
    }
    void syncTo(Cycle now) override { inner_->syncTo(now); }
    std::uint64_t rankEpoch() const override { return inner_->rankEpoch(); }

    int
    rankOf(ChannelId ch, ThreadId t) const override
    {
        return inner_->rankOf(ch, t);
    }

    Cycle agingThreshold() const override { return inner_->agingThreshold(); }
    bool rowHitAboveRank() const override { return inner_->rowHitAboveRank(); }
    bool useRowHit() const override { return inner_->useRowHit(); }
    bool prefersClosedPage() const override
    {
        return inner_->prefersClosedPage();
    }

    /** Reset probe accumulators (start of the measurement window). */
    void resetProbe(Cycle now) { monitor_.reset(now); }

    sched::ThreadBankMonitor &monitor() { return monitor_; }

  private:
    mem::SchedulerPolicy *inner_;
    sched::ThreadBankMonitor monitor_;
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
        double rbl = 0.0; //!< meaningless unless probed
        double blp = 0.0; //!< meaningless unless probed
        double ipc = 0.0;
        bool probed = false; //!< rbl/blp were actually measured
    };

    /**
     * Build with synthetic clones of @p profiles.
     *
     * @param enableProbe attach behaviour-probe monitors (small runtime
     *        cost; needed by behavior() and the Table 4 bench)
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

    /** Command counts of channel @p ch for dram::computeEnergy. */
    dram::CommandCounts commandCounts(ChannelId ch) const;

    /** Read-latency distributions of channel @p ch (measurement window). */
    const mem::LatencyTracker &latency(ChannelId ch) const;

    /** Cycles simulated since beginMeasurement(). */
    Cycle measuredCycles() const { return now_ - measureStart_; }

    const SystemConfig &config() const { return config_; }

    /** True when the behaviour probe was enabled at construction. */
    bool hasProbe() const { return probe_ != nullptr; }

    const std::vector<mem::CoreCounters> &counters() const { return counters_; }

    /**
     * Attach a passive command observer to every controller (trace
     * recording, extra auditing). Call before stepping the simulation;
     * the observer must outlive the Simulator.
     */
    void attachCommandObserver(dram::CommandObserver *observer);

    /**
     * Attach an in-run telemetry sink. The sink's TelemetryConfig
     * selects what flows into it: scheduler-decision events, per-read
     * lifecycle breakdowns, and the interval sampler (armed from the
     * current cycle). Purely observational — simulation results are
     * bit-identical with or without a sink. The sink must outlive the
     * Simulator; call before stepping.
     */
    void attachTelemetry(telemetry::TelemetrySink *sink);

    /** True when attachTelemetry was called. */
    bool hasTelemetry() const { return telemetry_ != nullptr; }

    /**
     * Attach a self-profiler (nullptr detaches): wall-clock phase
     * timers, cycle-skip horizon attribution and per-core regime
     * occupancy accumulate into it. The profiler observes
     * the *simulator*, never the simulated system — nothing it measures
     * feeds back into simulated state, so results are bit-identical
     * attached or detached (tests/test_prof). The profiler must outlive
     * the Simulator; call before stepping. When a telemetry sink with
     * interval sampling is also attached, each sample point additionally
     * pushes a cumulative "simulator" sample rendered as its own lane in
     * the Chrome trace output.
     */
    void attachProfiler(prof::Profiler *profiler);

    /** True when attachProfiler was called. */
    bool hasProfiler() const { return prof_ != nullptr; }

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

    /** @{ Cumulative gauges snapshotted at telemetry sample points. */
    std::vector<telemetry::ThreadGauges> threadGauges();
    std::vector<telemetry::ChannelGauges> channelGauges() const;
    /** @} */

    /** Emit one interval sample and re-arm the sampling clock. */
    void sampleTelemetry();

    /**
     * One fully simulated cycle, in canonical component order.
     * @p regimeCap > 0 selects cycle-skip mode: cores provably inside a
     * silent regime advance via the O(1) closed form instead of a full
     * tick (bit-identical by the regime contract, see Core::silentSpan),
     * with fresh regimes probed up to @p regimeCap cycles ahead and
     * cached in coreSpan_. 0 = oracle mode, plain ticks only.
     */
    void executeCycle(Cycle now, mem::SchedulerPolicy *active,
                      Cycle regimeCap);

    /**
     * Earliest cycle >= @p now at which any component other than a core
     * could act (conservative minimum over scheduler, telemetry clock,
     * and every controller), clamped to [@p now, @p end]. @p src is set
     * to which subsystem's horizon won (ties keep the earlier-listed
     * source; a low clamp keeps the cutting source) — profiler
     * attribution only, never consulted by simulation logic.
     */
    Cycle horizonAt(Cycle now, Cycle end, const mem::SchedulerPolicy *active,
                    prof::HorizonSource &src) const;

    SystemConfig config_;
    std::unique_ptr<mem::SchedulerPolicy> policy_;
    std::unique_ptr<ProbePolicy> probe_;
    std::unique_ptr<dram::ProtocolChecker> checker_;
    std::vector<std::unique_ptr<core::TraceSource>> traces_;
    std::vector<std::unique_ptr<mem::MemoryController>> controllers_;
    std::vector<std::unique_ptr<core::Core>> cores_;
    std::vector<mem::CoreCounters> counters_;

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
