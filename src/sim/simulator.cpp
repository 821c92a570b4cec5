#include "sim/simulator.hpp"

#include <algorithm>

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

/** The profiler regime of a core that just advanced: lockstep when it
 *  ticked, else the silent regime it is in. */
prof::Regime
regimeOf(const core::Core &core, bool silent)
{
    return !silent             ? prof::Regime::Lockstep
           : core.dormantHead() ? prof::Regime::Dormant
                                : prof::Regime::Streaming;
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
    init(std::move(traces), spec, seed, enableProbe, weights);
}

void
Simulator::init(std::vector<std::unique_ptr<core::TraceSource>> traces,
                const sched::SchedulerSpec &spec, std::uint64_t seed,
                bool enableProbe, const std::vector<int> &weights)
{
    const int numThreads = static_cast<int>(traces.size());
    traces_ = std::move(traces);

    policy_ = sched::makeScheduler(spec, seed);
    if (enableProbe) {
        // A single global-bank monitor measures exact system-wide BLP.
        probe_ = std::make_unique<sched::ThreadBankMonitor>();
        probe_->configure(numThreads,
                          config_.numChannels * config_.timing.banksPerChannel,
                          config_.timing.banksPerChannel);
    }

    counters_.resize(numThreads);

    if (config_.protocolCheck)
        checker_ = std::make_unique<dram::ProtocolChecker>(config_.timing);

    // Closed-page policies (e.g. FRFCFS-CP) pick their controller row
    // policy at construction.
    if (policy_->prefersClosedPage())
        config_.controller.pagePolicy = mem::PagePolicy::Closed;

    mem::Wiring wiring{.numThreads = numThreads,
                       .numChannels = config_.numChannels,
                       .banksPerChannel = config_.timing.banksPerChannel,
                       .coreCounters = &counters_,
                       .weights = weights};
    controllers_.reserve(config_.numChannels);
    for (ChannelId ch = 0; ch < config_.numChannels; ++ch) {
        controllers_.push_back(std::make_unique<mem::MemoryController>(
            ch, config_.timing, config_.controller, *policy_));
        wiring.readQueues.push_back(&controllers_.back()->readQueue());
        if (checker_)
            checker_->observeChannel(ch);
    }
    policy_->configure(wiring);
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
        prof_->configure(numThreads());
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
        controllers_[ch]->observe(commands, probe_.get(), telemetry_,
                                  prof_);
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
    prof::ScopedPhase timer(prof_ ? &prof_->phases() : nullptr,
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
        prof::ScopedPhase timer(prof_ ? &prof_->phases() : nullptr,
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
        prof::ScopedPhase coreTimer(prof_ ? &prof_->phases() : nullptr,
                                    prof::Phase::CoreTick);
        // Cores provably inside a silent regime take the O(1) closed
        // form; the regime test runs after completions were delivered,
        // so a just-woken core correctly falls out of the dormant regime
        // and takes the full tick. Cached spans survive executed cycles:
        // a regime depends only on the core's own state, which only a
        // full tick or a completion (reset above) can disturb. A
        // regimeCap of 0 (the per-cycle oracle) opens no span, so the
        // regime test is skipped and every core ticks.
        for (std::size_t i = 0; i < cores_.size(); ++i) {
            if (coreSpan_[i] == 0 && regimeCap > 0)
                coreSpan_[i] = cores_[i]->silentSpan(now, regimeCap);
            const bool silent = coreSpan_[i] > 0;
            if (silent) {
                cores_[i]->fastForwardSilent(1);
                --coreSpan_[i];
            } else {
                cores_[i]->tick(now);
            }
            if (prof_)
                prof_->addRegime(i, regimeOf(*cores_[i], silent), 1);
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
        // Per-cycle oracle: every cycle executed in full, every core
        // ticked; the differential reference for the event-horizon
        // kernel.
        for (; now_ < end; ++now_)
            executeCycle(now_, /*regimeCap=*/0);
        return;
    }

    // Event-horizon kernel. Invariant: every cycle at which a scheduler,
    // controller, or telemetry clock could act is executed through
    // executeCycle in canonical order, so all cross-component state
    // changes happen exactly as in the per-cycle loop. Cycles strictly
    // inside a horizon touch cores only: in-regime cores advance by the
    // closed form, out-of-regime cores tick in lockstep (exact, just
    // without the no-op scheduler/controller calls). A core's one
    // cross-component effect, a submission, only appends to its
    // controller's in-flight list, and the controller admits it at an
    // executed cycle its horizon schedules; so the horizon is queried
    // again after every stretch that submitted.
    const std::size_t n = cores_.size();
    coreSpan_.assign(n, 0);
    std::vector<std::size_t> lockstep; // out-of-regime cores, ascending
    lockstep.reserve(n);
    while (now_ < end) {
        executeCycle(now_, /*regimeCap=*/end - now_);
        ++now_;
        if (now_ >= end)
            break;
        prof::HorizonSource hsrc = prof::HorizonSource::Scheduler;
        Cycle h = horizonAt(now_, end, hsrc);
        prof::ScopedPhase coreTimer(prof_ ? &prof_->phases() : nullptr,
                                    prof::Phase::CoreTick);
        while (now_ < h) {
            // Refresh expired spans; cores untouched since their span
            // was computed keep the remainder (no completion can have
            // arrived inside the horizon, and completions at executed
            // cycles reset the span).
            Cycle k = h - now_;
            lockstep.clear();
            for (std::size_t i = 0; i < n; ++i) {
                if (coreSpan_[i] == 0)
                    coreSpan_[i] = cores_[i]->silentSpan(now_, end - now_);
                if (coreSpan_[i] == 0)
                    lockstep.push_back(i);
                else
                    k = std::min(k, coreSpan_[i]);
            }
            // One stretch of at most k cycles (the horizon, or the
            // shortest in-regime span). With the whole fleet in regime
            // it is one closed-form jump of all k cycles. Otherwise the
            // out-of-regime cores tick cycle by cycle, and the stretch
            // ends after a cycle in which one of them submitted (only
            // they can: both regimes preclude reaching a memory access)
            // or entered a regime, so the next pass can jump. The
            // in-regime cores then advance once, by the closed form,
            // over the cycles the stretch ran.
            Cycle ran = lockstep.empty() ? k : 0;
            bool submitted = false;
            for (bool entered = false; ran < k && !entered && !submitted;
                 ++ran) {
                const Cycle c = now_ + ran;
                for (std::size_t i : lockstep) {
                    submitted |= cores_[i]->tick(c);
                    entered = entered ||
                              cores_[i]->silentSpan(c + 1, end - c - 1) > 0;
                }
            }
            for (std::size_t i = 0; i < n; ++i) {
                const bool silent = coreSpan_[i] > 0;
                if (silent) {
                    cores_[i]->fastForwardSilent(ran);
                    coreSpan_[i] -= ran;
                }
                if (prof_)
                    prof_->addRegime(i, regimeOf(*cores_[i], silent), ran);
            }
            // Attribute a jump: one cut short of the horizon was bounded
            // by a core regime ending.
            if (prof_ && lockstep.empty())
                prof_->recordSkip(now_ + k == h ? hsrc
                                                : prof::HorizonSource::Core,
                                  k);
            now_ += ran;
            if (submitted)
                h = horizonAt(now_, end, hsrc);
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
    return c;
}

} // namespace tcm::sim
