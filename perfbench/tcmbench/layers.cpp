#include <memory>
#include <stdexcept>

#include "common/json.hpp"
#include "metrics/metrics.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {

using tcm::prof::HorizonSource;
using tcm::prof::Phase;
using tcm::prof::Regime;

namespace {

/** DRAM commands and row outcomes the controllers have counted since
 *  their last stats reset. */
void
addDramCounts(const tcm::sim::Simulator &sim, LayerSample &s)
{
    for (int ch = 0; ch < sim.config().numChannels; ++ch) {
        const tcm::mem::ControllerStats &st = sim.controllerStats(ch);
        const tcm::dram::CommandCounts cc = sim.commandCounts(ch);
        s.dramCmds += cc.activates + st.precharges + cc.reads + cc.writes +
                      cc.refreshes;
        s.rowHits += st.rowHits;
        s.rowMisses += st.rowMisses;
    }
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

template <class F>
std::vector<double>
column(const std::vector<LayerSample> &samples, F field)
{
    std::vector<double> out;
    out.reserve(samples.size());
    for (const LayerSample &s : samples)
        out.push_back(field(s));
    return out;
}

template <class F>
double
total(const std::vector<LayerSample> &samples, F field)
{
    double sum = 0.0;
    for (const LayerSample &s : samples)
        sum += static_cast<double>(field(s));
    return sum;
}

/** Fill @p s's profiler fields from an in-process report. */
void
fromReport(const tcm::prof::ProfileReport &r, LayerSample &s)
{
    s.profiled = true;
    s.ctrlTickMs = r.phaseMs(Phase::CtrlTick);
    s.scanMs = r.phaseMs(Phase::ReadScan);
    s.coreTickMs = r.phaseMs(Phase::CoreTick);
    s.schedTickMs = r.phaseMs(Phase::SchedTick);
    s.skipP50 = r.skipLengths.percentile(0.5);
    s.skips = r.skipCount;
    for (int i = 0; i < tcm::prof::kRegimeCount; ++i)
        s.regimes[i] = r.regimeTotal(static_cast<Regime>(i));
    s.soaScans = r.scan.soaScans;
    s.readsExamined = r.scan.readsExamined;
    s.dominanceSkipped = r.scan.dominanceSkipped;
    s.fallbackScans = r.scan.fallbackScans;
}

} // namespace

void
fromProfileJson(const std::string &text, LayerSample &s)
{
    const tcm::json::Value doc = tcm::json::parse(text);
    if (doc.stringOr("schema", "") != "tcmsim-profile-v1")
        throw std::runtime_error("not a tcmsim-profile-v1 document");
    auto member = [](const tcm::json::Value &v, const std::string &key) {
        const tcm::json::Value *m = v.find(key);
        if (m == nullptr || !m->isObject())
            throw std::runtime_error("profile lacks '" + key + "'");
        return *m;
    };
    auto count = [](const tcm::json::Value &v, const std::string &key) {
        return static_cast<std::uint64_t>(v.numberOr(key, 0.0));
    };
    const tcm::json::Value phases = member(doc, "phases");
    auto phaseMs = [&](Phase p) {
        return member(phases, tcm::prof::phaseKey(p)).numberOr("ms", 0.0);
    };
    s.profiled = true;
    s.ctrlTickMs = phaseMs(Phase::CtrlTick);
    s.scanMs = phaseMs(Phase::ReadScan);
    s.coreTickMs = phaseMs(Phase::CoreTick);
    s.schedTickMs = phaseMs(Phase::SchedTick);
    const tcm::json::Value horizon = member(doc, "horizon");
    for (int i = 0; i < tcm::prof::kHorizonSourceCount; ++i)
        s.skips[i] = count(
            member(horizon, tcm::prof::horizonSourceName(
                                static_cast<HorizonSource>(i))),
            "skips");
    s.skipP50 = member(doc, "skip_length").numberOr("p50", 0.0);
    const tcm::json::Value regimes = member(doc, "regimes");
    s.regimes = {count(regimes, "dormant"), count(regimes, "streaming"),
                 count(regimes, "lockstep")};
    const tcm::json::Value scan = member(doc, "scan");
    s.soaScans = count(scan, "soa_scans");
    s.readsExamined = count(scan, "reads_examined");
    s.dominanceSkipped = count(scan, "dominance_skipped");
    s.fallbackScans = count(scan, "fallback_scans");
}

JobOutput
tracedJob(const tcm::sim::SystemConfig &config,
          const std::vector<tcm::workload::ThreadProfile> &mix,
          tcm::sched::SchedulerSpec spec,
          const tcm::sim::ExperimentScale &scale,
          tcm::sim::AloneIpcCache &cache, std::uint64_t seed, SpanLog &log,
          std::uint64_t job, bool profile, LayerSample &sample)
{
    const Clock::time_point t0 = Clock::now();
    Span root(log, "job", job);
    spec.scaleToRun(scale.measure); // as runWorkload: full-run constants

    std::unique_ptr<tcm::sim::Simulator> sim;
    Clock::time_point t = Clock::now();
    {
        Span s(log, "sim.construct", job);
        sim = std::make_unique<tcm::sim::Simulator>(config, mix, spec, seed);
    }
    sample.constructMs = secondsSince(t) * 1e3;

    tcm::prof::Profiler profiler;
    if (profile)
        sim->attachProfiler(&profiler);

    t = Clock::now();
    {
        Span s(log, "sim.step.warmup", job);
        sim->step(scale.effectiveWarmup());
    }
    sample.warmupMs = secondsSince(t) * 1e3;
    // beginMeasurement resets the controller counters: bank the warmup's.
    addDramCounts(*sim, sample);

    t = Clock::now();
    {
        Span s(log, "sim.step.measure", job);
        sim->beginMeasurement();
        if (scale.sampling.enabled) {
            for (int k = 0; k < scale.sampling.windows; ++k)
                sim->step(scale.sampling.window);
        } else {
            sim->step(scale.measure);
        }
    }
    sample.measureMs = secondsSince(t) * 1e3;
    addDramCounts(*sim, sample);

    JobOutput out;
    std::vector<double> alone;
    {
        Span s(log, "sim.alone_ipc", job);
        for (tcm::ThreadId th = 0;
             th < static_cast<tcm::ThreadId>(mix.size()); ++th) {
            out.ipc.push_back(sim->measuredIpc(th));
            alone.push_back(cache.aloneIpc(mix[th]));
        }
    }
    {
        Span s(log, "metrics.compute", job);
        const tcm::metrics::WorkloadMetrics m =
            tcm::metrics::computeMetrics(alone, out.ipc);
        out.ws = m.weightedSpeedup;
        out.ms = m.maxSlowdown;
        out.hs = m.harmonicSpeedup;
    }

    sample.cycles = static_cast<std::uint64_t>(sim->now());
    for (const tcm::mem::CoreCounters &c : sim->counters())
        sample.insts += c.instructions;
    if (profile)
        fromReport(profiler.report(), sample);
    sample.jobS = secondsSince(t0);
    return out;
}

void
addLayerMetrics(Result &result, const std::vector<LayerSample> &stepped,
                const std::vector<LayerSample> &profiled)
{
    auto add = [&](const std::string &name, double value,
                   const std::string &unit) {
        result.perLayer.push_back({name, value, unit});
    };

    // sim: the Simulator calls, per-job medians of the stepped jobs.
    add("sim.construct_ms",
        median(column(stepped, [](auto &s) { return s.constructMs; })), "ms");
    add("sim.warmup_step_ms",
        median(column(stepped, [](auto &s) { return s.warmupMs; })), "ms");
    add("sim.measure_step_ms",
        median(column(stepped, [](auto &s) { return s.measureMs; })), "ms");

    // sim: the cycle-skip kernel, from the profiler's horizon attribution.
    const double cycles = total(profiled, [](auto &s) { return s.cycles; });
    double skips = 0.0;
    for (int i = 0; i < tcm::prof::kHorizonSourceCount; ++i)
        skips += total(profiled, [i](auto &s) { return s.skips[i]; });
    auto boundShare = [&](HorizonSource src) {
        const int i = static_cast<int>(src);
        return ratio(total(profiled, [i](auto &s) { return s.skips[i]; }),
                     skips);
    };
    add("sim.jumps_per_kcycle", ratio(skips, cycles) * 1e3, "1/kcycle");
    add("sim.skip_len_p50",
        median(column(profiled, [](auto &s) { return s.skipP50; })),
        "cycles");
    add("sim.ctrl_bounded_share", boundShare(HorizonSource::Controller),
        "ratio");
    add("sim.core_bounded_share", boundShare(HorizonSource::Core), "ratio");
    add("sim.sched_bounded_share", boundShare(HorizonSource::Scheduler),
        "ratio");

    // mem: controller tick outside the read scan, the scan itself.
    add("mem.ctrl_tick_self_ms",
        median(column(profiled,
                      [](auto &s) { return s.ctrlTickMs - s.scanMs; })),
        "ms");
    add("mem.scan_ms",
        median(column(profiled, [](auto &s) { return s.scanMs; })), "ms");
    const double scans = total(profiled, [](auto &s) { return s.soaScans; });
    const double examined =
        total(profiled, [](auto &s) { return s.readsExamined; });
    add("mem.scans_per_kcycle", ratio(scans, cycles) * 1e3, "1/kcycle");
    add("mem.reads_examined_per_scan", ratio(examined, scans), "reads");
    add("mem.dominance_skip_ratio",
        ratio(total(profiled, [](auto &s) { return s.dominanceSkipped; }),
              examined),
        "ratio");
    add("mem.fallback_scans",
        total(profiled, [](auto &s) { return s.fallbackScans; }), "count");

    // dram: command traffic and what each command costs the host.
    const double steppedCycles =
        total(stepped, [](auto &s) { return s.cycles; });
    const double cmds = total(stepped, [](auto &s) { return s.dramCmds; });
    const double hits = total(stepped, [](auto &s) { return s.rowHits; });
    add("dram.cmds_per_kcycle", ratio(cmds, steppedCycles) * 1e3,
        "1/kcycle");
    add("dram.row_hit_ratio",
        ratio(hits, hits + total(stepped, [](auto &s) { return s.rowMisses; })),
        "ratio");
    // ctrl.tick time per DRAM command, as per-job means: the profiled and
    // stepped jobs are the same jobs on the grids and the same manifest's
    // jobs on fleet.
    const double ctrlNs =
        total(profiled, [](auto &s) { return s.ctrlTickMs; }) * 1e6;
    add("dram.host_ns_per_cmd",
        ratio(ratio(ctrlNs, static_cast<double>(profiled.size())),
              ratio(cmds, static_cast<double>(stepped.size()))),
        "ns");

    // sched and core: their step() phases and the core regimes.
    add("sched.tick_ms",
        median(column(profiled, [](auto &s) { return s.schedTickMs; })),
        "ms");
    add("core.tick_ms",
        median(column(profiled, [](auto &s) { return s.coreTickMs; })), "ms");
    double regimeCycles = 0.0;
    for (int i = 0; i < tcm::prof::kRegimeCount; ++i)
        regimeCycles += total(profiled, [i](auto &s) { return s.regimes[i]; });
    auto regimeShare = [&](Regime r) {
        const int i = static_cast<int>(r);
        return ratio(total(profiled, [i](auto &s) { return s.regimes[i]; }),
                     regimeCycles);
    };
    add("core.dormant_share", regimeShare(Regime::Dormant), "ratio");
    add("core.streaming_share", regimeShare(Regime::Streaming), "ratio");
    add("core.lockstep_share", regimeShare(Regime::Lockstep), "ratio");
    add("core.insts_per_job",
        median(column(stepped,
                      [](auto &s) { return static_cast<double>(s.insts); })),
        "insts");
}

} // namespace perfbench
