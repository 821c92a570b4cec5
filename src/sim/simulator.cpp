#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>

namespace tcm::sim {

namespace {

/** splitmix64: decorrelate per-thread trace seeds from the run seed. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Simulator::Simulator(const SystemConfig &config,
                     const std::vector<workload::ThreadProfile> &profiles,
                     const sched::SchedulerSpec &spec, std::uint64_t seed,
                     bool enableProbe)
    : config_(config)
{
    std::vector<std::unique_ptr<core::TraceSource>> traces;
    std::vector<int> weights;
    traces.reserve(profiles.size());
    weights.reserve(profiles.size());
    for (std::size_t t = 0; t < profiles.size(); ++t) {
        workload::ThreadProfile p = profiles[t];
        p.mpki *= config_.mpkiScale;
        traces.push_back(std::make_unique<workload::SyntheticTrace>(
            p, config_.geometry(), mixSeed(seed, t)));
        weights.push_back(p.weight);
    }
    init(std::move(traces), spec, seed, enableProbe, weights);
}

Simulator::Simulator(const SystemConfig &config,
                     std::vector<std::unique_ptr<core::TraceSource>> traces,
                     const sched::SchedulerSpec &spec, std::uint64_t seed,
                     bool enableProbe, std::vector<int> weights)
    : config_(config)
{
    if (weights.empty())
        weights.assign(traces.size(), 1);
    init(std::move(traces), spec, seed, enableProbe, weights);
}

void
Simulator::init(std::vector<std::unique_ptr<core::TraceSource>> traces,
                const sched::SchedulerSpec &spec, std::uint64_t seed,
                bool enableProbe, const std::vector<int> &weights)
{
    const int numThreads = static_cast<int>(traces.size());
    assert(static_cast<int>(weights.size()) == numThreads);
    traces_ = std::move(traces);

    policy_ = sched::makeScheduler(spec, seed);
    policy_->configure(numThreads, config_.numChannels,
                       config_.timing.banksPerChannel);
    if (enableProbe) {
        // A single global-bank monitor measures exact system-wide BLP.
        probe_ = std::make_unique<sched::ThreadBankMonitor>();
        probe_->configure(numThreads,
                          config_.numChannels * config_.timing.banksPerChannel,
                          config_.timing.banksPerChannel);
    }

    counters_.resize(numThreads);
    policy_->setCoreCounters(&counters_);

    bool anyWeight = false;
    for (int w : weights)
        anyWeight |= w != 1;
    if (anyWeight)
        policy_->setThreadWeights(weights);

    if (config_.protocolCheck)
        checker_ = std::make_unique<dram::ProtocolChecker>(config_.timing);

    // Closed-page policies (e.g. FRFCFS-CP) pick their controller row
    // policy at construction.
    if (policy_->prefersClosedPage())
        config_.controller.pagePolicy = mem::PagePolicy::Closed;

    controllers_.reserve(config_.numChannels);
    for (ChannelId ch = 0; ch < config_.numChannels; ++ch) {
        controllers_.push_back(std::make_unique<mem::MemoryController>(
            ch, config_.timing, config_.controller, *policy_));
        policy_->attachQueue(ch, controllers_.back().get());
        if (checker_)
            checker_->observeChannel(ch);
    }
    observeControllers();

    std::vector<mem::MemoryController *> mcs;
    for (auto &mc : controllers_)
        mcs.push_back(mc.get());

    cores_.reserve(numThreads);
    for (ThreadId t = 0; t < numThreads; ++t) {
        cores_.push_back(std::make_unique<core::Core>(
            t, config_.core, *traces_[t], mcs, &counters_[t]));
    }

    baseInstructions_.assign(numThreads, 0);
    baseMisses_.assign(numThreads, 0);
    coreSpan_.assign(numThreads, 0);
}

Simulator::~Simulator() = default;

void
Simulator::attach(const Observers &observers)
{
    commandObservers_.insert(commandObservers_.end(),
                             observers.commands.begin(),
                             observers.commands.end());

    if (observers.profiler) {
        prof_ = observers.profiler;
        prof_->configure(numThreads(), config_.numChannels);
    }

    if (telemetry::TelemetrySink *sink = observers.telemetry) {
        telemetry_ = sink;
        telemetry::TelemetrySink::Meta meta = sink->meta();
        meta.scheduler = policy_->name();
        meta.numThreads = numThreads();
        meta.numChannels = config_.numChannels;
        meta.sampleInterval = sink->config().sampleInterval;
        sink->setMeta(std::move(meta));
        policy_->setDecisionSink(sink);
        if (sink->config().sampleInterval > 0) {
            sampler_ = std::make_unique<telemetry::IntervalSampler>(
                numThreads(), config_.numChannels, config_.timing.tCK,
                config_.timing.tBURST);
            sampler_->rebase(now_, threadGauges(), channelGauges());
            telemetrySampleAt_ = now_ + sink->config().sampleInterval;
        }
    }

    observeControllers();
}

void
Simulator::observeControllers()
{
    // The config-owned protocol checker always heads the command list.
    std::vector<dram::CommandObserver *> commands;
    if (checker_)
        commands.push_back(checker_.get());
    commands.insert(commands.end(), commandObservers_.begin(),
                    commandObservers_.end());
    for (ChannelId ch = 0; ch < config_.numChannels; ++ch)
        controllers_[ch]->observe(
            commands, probe_.get(), telemetry_,
            prof_ ? prof_->controllerShard(ch) : nullptr);
}

std::vector<telemetry::ThreadGauges>
Simulator::threadGauges()
{
    std::vector<telemetry::ThreadGauges> gauges(cores_.size());
    sched::ThreadBankMonitor::Snapshot snap;
    if (probe_)
        snap = probe_->snapshot(now_);
    for (std::size_t t = 0; t < gauges.size(); ++t) {
        telemetry::ThreadGauges &g = gauges[t];
        g.instructions = counters_[t].instructions;
        g.readMisses = counters_[t].readMisses;
        if (probe_) {
            ThreadId tid = static_cast<ThreadId>(t);
            g.hasBehavior = true;
            g.shadowHits = snap.shadowHits[t];
            g.accesses = snap.accesses[t];
            g.banksWithLoad = probe_->banksWithLoad(tid);
            g.outstanding = probe_->outstanding(tid);
        }
    }
    return gauges;
}

std::vector<telemetry::ChannelGauges>
Simulator::channelGauges() const
{
    std::vector<telemetry::ChannelGauges> gauges(controllers_.size());
    for (std::size_t ch = 0; ch < gauges.size(); ++ch) {
        const mem::ControllerStats &s = controllers_[ch]->stats();
        telemetry::ChannelGauges &g = gauges[ch];
        g.commands = s.activates + s.precharges + s.readsServiced +
                     s.writesServiced + s.refreshes;
        g.columns = s.readsServiced + s.writesServiced;
        g.rowHits = s.rowHits;
        g.readQueue = static_cast<std::uint32_t>(controllers_[ch]->readLoad());
        g.writeQueue =
            static_cast<std::uint32_t>(controllers_[ch]->writeLoad());
    }
    return gauges;
}

void
Simulator::sampleTelemetry()
{
    prof::ScopedPhase timer(prof_ ? &prof_->main() : nullptr,
                            prof::Phase::Telemetry);
    sampler_->sample(now_, threadGauges(), channelGauges(), *telemetry_);
    if (prof_) {
        // Cumulative simulator-side sample, rendered as the "simulator"
        // lane in the Chrome trace (the JSONL stream is untouched —
        // its bytes are part of the bit-identity contract).
        prof::Profiler::Pulse p = prof_->pulse();
        telemetry_->addSimulatorSample(
            telemetry::SimulatorSample{now_, p.wallMs, p.skips,
                                       p.skippedCycles});
    }
    telemetrySampleAt_ = now_ + telemetry_->config().sampleInterval;
}

void
Simulator::executeCycle(Cycle now, Cycle regimeCap)
{
    {
        prof::ScopedPhase timer(prof_ ? &prof_->main() : nullptr,
                                prof::Phase::SchedTick);
        policy_->tick(now);
    }
    for (auto &mc : controllers_) {
        mc->tick(now);
        auto &comps = mc->completions();
        if (!comps.empty()) {
            for (const auto &c : comps) {
                cores_[c.thread]->completeMiss(c.missId, c.readyAt);
                // A delivered completion can end a dormant regime;
                // force a fresh regime test for this core.
                coreSpan_[c.thread] = 0;
            }
            comps.clear();
        }
    }
    {
        prof::ScopedPhase coreTimer(prof_ ? &prof_->main() : nullptr,
                                    prof::Phase::CoreTick);
        if (regimeCap > 0) {
            // Cycle-skip mode: cores provably inside a silent regime
            // take the O(1) closed form; the regime test runs after
            // completions were delivered, so a just-woken core correctly
            // falls out of the dormant regime and takes the full tick.
            // Cached spans survive executed cycles: a regime depends
            // only on the core's own state, which only a full tick or a
            // completion (reset above) can disturb.
            for (std::size_t i = 0; i < cores_.size(); ++i) {
                if (coreSpan_[i] == 0)
                    coreSpan_[i] = cores_[i]->silentSpan(now, regimeCap);
                if (coreSpan_[i] > 0) {
                    cores_[i]->fastForwardSilent(1);
                    --coreSpan_[i];
                    if (prof_)
                        prof_->addRegime(i,
                                         cores_[i]->dormantHead()
                                             ? prof::Regime::Dormant
                                             : prof::Regime::Streaming,
                                         1);
                } else {
                    cores_[i]->tick(now);
                    if (prof_)
                        prof_->addRegime(i, prof::Regime::Lockstep, 1);
                }
            }
        } else {
            for (std::size_t i = 0; i < cores_.size(); ++i) {
                cores_[i]->tick(now);
                if (prof_)
                    prof_->addRegime(i, prof::Regime::Lockstep, 1);
            }
        }
    }
    if (now >= telemetrySampleAt_)
        sampleTelemetry();
}

Cycle
Simulator::horizonAt(Cycle now, Cycle end, prof::HorizonSource &src) const
{
    // Value-identical to min-of-everything-then-clamp; the source
    // tracking mirrors std::min's tie behavior (first listed wins).
    Cycle h = policy_->nextEventAt(now);
    src = prof::HorizonSource::Scheduler;
    if (telemetrySampleAt_ < h) {
        h = telemetrySampleAt_;
        src = prof::HorizonSource::Telemetry;
    }
    for (const auto &mc : controllers_) {
        const Cycle m = mc->nextEventAt(now);
        if (m < h) {
            h = m;
            src = prof::HorizonSource::Controller;
        }
    }
    if (h > end) {
        h = end;
        src = prof::HorizonSource::End;
    }
    return h < now ? now : h;
}

void
Simulator::step(Cycle cycles)
{
    const Cycle end = now_ + cycles;

    if (!config_.cycleSkip) {
        // Per-cycle oracle: the original loop, kept verbatim as the
        // differential reference for the event-horizon kernel.
        for (; now_ < end; ++now_)
            executeCycle(now_, /*regimeCap=*/0);
        return;
    }

    // Event-horizon kernel. Invariant: every cycle at which a scheduler,
    // controller, or telemetry clock could act — and every cycle at
    // which a core submits a memory operation — is executed through
    // executeCycle in canonical order, so all cross-component state
    // changes happen exactly as in the per-cycle loop. Cycles strictly
    // inside a horizon span touch cores only: in-regime cores advance
    // by the closed form, out-of-regime cores tick in lockstep (exact,
    // just without the no-op scheduler/controller calls).
    const std::size_t n = cores_.size();
    coreSpan_.assign(n, 0);
    while (now_ < end) {
        executeCycle(now_, /*regimeCap=*/end - now_);
        ++now_;
        if (now_ >= end)
            break;
        prof::HorizonSource hsrc = prof::HorizonSource::Scheduler;
        const Cycle h = horizonAt(now_, end, hsrc);
        prof::ScopedPhase coreTimer(prof_ ? &prof_->main() : nullptr,
                                    prof::Phase::CoreTick);
        while (now_ < h) {
            // Refresh expired spans; cores untouched since their span
            // was computed keep the remainder (no completion can have
            // arrived inside the horizon, and completions at executed
            // cycles reset the span).
            Cycle k = h - now_;
            std::size_t out = 0;
            for (std::size_t i = 0; i < n; ++i) {
                if (coreSpan_[i] == 0)
                    coreSpan_[i] = cores_[i]->silentSpan(now_, end - now_);
                if (coreSpan_[i] == 0)
                    ++out;
                else
                    k = std::min(k, coreSpan_[i]);
            }
            if (out == 0) {
                // Whole fleet in regime: one closed-form jump.
                for (std::size_t i = 0; i < n; ++i) {
                    cores_[i]->fastForwardSilent(k);
                    coreSpan_[i] -= k;
                }
                if (prof_) {
                    // Attribute the realized jump: a jump cut short of
                    // the horizon was bounded by a core regime ending.
                    prof_->recordSkip(now_ + k == h
                                          ? hsrc
                                          : prof::HorizonSource::Core,
                                      k);
                    for (std::size_t i = 0; i < n; ++i)
                        prof_->addRegime(i,
                                         cores_[i]->dormantHead()
                                             ? prof::Regime::Dormant
                                             : prof::Regime::Streaming,
                                         k);
                }
                now_ += k;
                continue;
            }
            // A submission this cycle is a cross-component effect:
            // promote it to a fully executed cycle so the controller
            // sees it in canonical order. Only out-of-regime cores can
            // submit (both regimes preclude reaching a memory access).
            bool submits = false;
            for (std::size_t i = 0; i < n; ++i) {
                if (coreSpan_[i] == 0 && cores_[i]->wouldSubmitAt(now_)) {
                    submits = true;
                    break;
                }
            }
            if (submits)
                break;
            // Mixed single cycle: lockstep-tick the out-of-regime
            // cores, closed-form the rest.
            for (std::size_t i = 0; i < n; ++i) {
                if (coreSpan_[i] > 0) {
                    cores_[i]->fastForwardSilent(1);
                    --coreSpan_[i];
                    if (prof_)
                        prof_->addRegime(i,
                                         cores_[i]->dormantHead()
                                             ? prof::Regime::Dormant
                                             : prof::Regime::Streaming,
                                         1);
                } else {
                    cores_[i]->tick(now_);
                    if (prof_)
                        prof_->addRegime(i, prof::Regime::Lockstep, 1);
                }
            }
            ++now_;
        }
    }

    // Catch up lazily accrued scheduler statistics (STFM stall time) to
    // the last simulated cycle so post-step reads observe the same
    // values the per-cycle loop leaves behind. No-op in per-cycle mode
    // and for stateless-in-time policies.
    if (cycles > 0)
        policy_->syncTo(now_ - 1);
}

void
Simulator::beginMeasurement()
{
    measureStart_ = now_;
    for (std::size_t t = 0; t < cores_.size(); ++t) {
        baseInstructions_[t] = counters_[t].instructions;
        baseMisses_[t] = counters_[t].readMisses;
    }
    for (auto &mc : controllers_)
        mc->resetStats();
    if (probe_)
        probe_->reset(now_);
    // Controller/probe counters just rewound; rebase the sampler so the
    // next interval differentiates against the reset values.
    if (sampler_) {
        sampler_->rebase(now_, threadGauges(), channelGauges());
        telemetrySampleAt_ = now_ + telemetry_->config().sampleInterval;
    }
}

void
Simulator::run(Cycle warmup, Cycle measure)
{
    step(warmup);
    beginMeasurement();
    step(measure);
}

double
Simulator::measuredIpc(ThreadId t) const
{
    Cycle elapsed = now_ - measureStart_;
    if (elapsed == 0)
        return 0.0;
    std::uint64_t insts = counters_[t].instructions - baseInstructions_[t];
    return static_cast<double>(insts) / static_cast<double>(elapsed);
}

Simulator::BehaviorStats
Simulator::behavior(ThreadId t) const
{
    BehaviorStats b;
    b.ipc = measuredIpc(t);
    std::uint64_t insts = counters_[t].instructions - baseInstructions_[t];
    std::uint64_t misses = counters_[t].readMisses - baseMisses_[t];
    b.mpki = insts > 0 ? 1000.0 * static_cast<double>(misses) /
                             static_cast<double>(insts)
                       : 0.0;
    if (probe_) {
        auto s = probe_->snapshot(now_);
        b.blp = s.blp[t];
        b.rbl = s.rbl[t];
        b.probed = true;
    }
    return b;
}

const mem::ControllerStats &
Simulator::controllerStats(ChannelId ch) const
{
    return controllers_[ch]->stats();
}

const mem::LatencyTracker &
Simulator::latency(ChannelId ch) const
{
    return controllers_[ch]->latency();
}

dram::CommandCounts
Simulator::commandCounts(ChannelId ch) const
{
    const mem::ControllerStats &s = controllers_[ch]->stats();
    dram::CommandCounts c;
    c.activates = s.activates;
    c.reads = s.readsServiced;
    c.writes = s.writesServiced;
    c.refreshes = s.refreshes;
    c.bankBusyCycles = s.bankBusyCycles;
    const dram::Channel &chan = controllers_[ch]->channel();
    for (int r = 0; r < chan.numRanks(); ++r)
        c.powerDownBankCycles +=
            static_cast<std::uint64_t>(chan.rankPowerDownCycles(r, now_)) *
            config_.timing.banksPerRank();
    return c;
}

} // namespace tcm::sim
