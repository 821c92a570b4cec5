#include "prof/profiler.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/numfmt.hpp"

namespace tcm::prof {

const char *
phaseName(Phase p)
{
    switch (p) {
    case Phase::SchedTick: return "sched.tick";
    case Phase::CtrlTick: return "ctrl.tick";
    case Phase::ReadScan: return "ctrl.scan";
    case Phase::CoreTick: return "core.tick";
    case Phase::Telemetry: return "telemetry";
    }
    return "?";
}

const char *
phaseKey(Phase p)
{
    switch (p) {
    case Phase::SchedTick: return "sched_tick";
    case Phase::CtrlTick: return "ctrl_tick";
    case Phase::ReadScan: return "ctrl_scan";
    case Phase::CoreTick: return "core_tick";
    case Phase::Telemetry: return "telemetry";
    }
    return "?";
}

const char *
horizonSourceName(HorizonSource s)
{
    switch (s) {
    case HorizonSource::Scheduler: return "scheduler";
    case HorizonSource::Controller: return "controller";
    case HorizonSource::Telemetry: return "telemetry";
    case HorizonSource::Core: return "core";
    case HorizonSource::End: return "end";
    }
    return "?";
}

ProfileConfig
ProfileConfig::fromEnv()
{
    ProfileConfig config;
    const char *v = std::getenv("TCMSIM_PROFILE");
    if (v == nullptr || v[0] == '\0' || std::string(v) == "0")
        return config;
    config.enabled = true;
    if (std::string(v) != "1")
        config.dir = v;
    return config;
}

stats::Histogram
skipLengthLadder()
{
    // 1, 2, 4, ... 2^19 cycles; longer jumps land in the overflow bucket
    // and report the observed maximum (Histogram percentile contract).
    return stats::Histogram::exponential(1.0, 2.0, 20);
}

void
Profiler::configure(int numCores)
{
    coreRegimes_.assign(static_cast<std::size_t>(std::max(numCores, 1)), {});
}

Profiler::Pulse
Profiler::pulse() const
{
    Pulse p;
    std::uint64_t ns = 0;
    for (int i = 0; i < kPhaseCount; ++i)
        if (static_cast<Phase>(i) != Phase::ReadScan) // nests in CtrlTick
            ns += phases_.ns[i];
    p.wallMs = static_cast<double>(ns) / 1e6;
    for (int i = 0; i < kHorizonSourceCount; ++i) {
        p.skips += skipCount_[i];
        p.skippedCycles += skipCycles_[i];
    }
    return p;
}

ProfileReport
Profiler::report() const
{
    ProfileReport r;
    r.enabled = true;
    r.runs = 1;
    r.phaseNs = phases_.ns;
    r.phaseCalls = phases_.calls;
    r.scan = scan_;
    r.skipCount = skipCount_;
    r.skipCycles = skipCycles_;
    r.skipLengths = skipLengths_;
    r.coreRegimes = coreRegimes_;
    return r;
}

std::uint64_t
ProfileReport::totalSkips() const
{
    std::uint64_t n = 0;
    for (int i = 0; i < kHorizonSourceCount; ++i)
        n += skipCount[i];
    return n;
}

std::uint64_t
ProfileReport::totalSkippedCycles() const
{
    std::uint64_t n = 0;
    for (int i = 0; i < kHorizonSourceCount; ++i)
        n += skipCycles[i];
    return n;
}

std::uint64_t
ProfileReport::regimeTotal(Regime r) const
{
    std::uint64_t n = 0;
    for (const auto &core : coreRegimes)
        n += core[static_cast<int>(r)];
    return n;
}

double
ProfileReport::phaseMs(Phase p) const
{
    return static_cast<double>(phaseNs[static_cast<int>(p)]) / 1e6;
}

void
ProfileReport::merge(const ProfileReport &other)
{
    if (!other.enabled)
        return;
    enabled = true;
    runs += other.runs;
    for (int i = 0; i < kPhaseCount; ++i) {
        phaseNs[i] += other.phaseNs[i];
        phaseCalls[i] += other.phaseCalls[i];
    }
    for (int i = 0; i < kHorizonSourceCount; ++i) {
        skipCount[i] += other.skipCount[i];
        skipCycles[i] += other.skipCycles[i];
    }
    skipLengths.merge(other.skipLengths);
    if (coreRegimes.size() < other.coreRegimes.size())
        coreRegimes.resize(other.coreRegimes.size());
    for (std::size_t c = 0; c < other.coreRegimes.size(); ++c)
        for (int r = 0; r < kRegimeCount; ++r)
            coreRegimes[c][r] += other.coreRegimes[c][r];
    scan.addFrom(other.scan);
}

std::vector<std::pair<std::string, double>>
ProfileReport::provenance() const
{
    // Fixed key order: these land verbatim in the ResultsDoc "run"
    // block, which must serialize identically across builds.
    std::vector<std::pair<std::string, double>> out;
    for (int i = 0; i < kPhaseCount; ++i)
        out.emplace_back(std::string(phaseKey(static_cast<Phase>(i))) + "_ms",
                         static_cast<double>(phaseNs[i]) / 1e6);
    out.emplace_back("skips", static_cast<double>(totalSkips()));
    out.emplace_back("skipped_cycles",
                     static_cast<double>(totalSkippedCycles()));
    out.emplace_back("skip_p50", skipLengths.percentile(0.5));
    out.emplace_back("skip_max", skipLengths.max());
    for (int i = 0; i < kHorizonSourceCount; ++i)
        out.emplace_back(std::string("horizon_") + horizonSourceName(
                             static_cast<HorizonSource>(i)),
                         static_cast<double>(skipCount[i]));
    out.emplace_back("dormant_cycles",
                     static_cast<double>(regimeTotal(Regime::Dormant)));
    out.emplace_back("streaming_cycles",
                     static_cast<double>(regimeTotal(Regime::Streaming)));
    out.emplace_back("lockstep_cycles",
                     static_cast<double>(regimeTotal(Regime::Lockstep)));
    out.emplace_back("reads_examined",
                     static_cast<double>(scan.readsExamined));
    out.emplace_back("dominance_skipped",
                     static_cast<double>(scan.dominanceSkipped));
    out.emplace_back("fallback_scans",
                     static_cast<double>(scan.fallbackScans));
    return out;
}

namespace {

std::string
num(double v)
{
    return formatDouble(v);
}

} // namespace

std::string
ProfileReport::toJson() const
{
    std::ostringstream out;
    out << "{\n  \"schema\": \"tcmsim-profile-v1\",\n";
    out << "  \"runs\": " << runs << ",\n";
    out << "  \"phases\": {";
    for (int i = 0; i < kPhaseCount; ++i) {
        if (i)
            out << ", ";
        out << "\"" << phaseKey(static_cast<Phase>(i)) << "\": {\"ms\": "
            << num(static_cast<double>(phaseNs[i]) / 1e6) << ", \"calls\": "
            << phaseCalls[i] << "}";
    }
    out << "},\n";
    out << "  \"horizon\": {";
    for (int i = 0; i < kHorizonSourceCount; ++i) {
        if (i)
            out << ", ";
        out << "\"" << horizonSourceName(static_cast<HorizonSource>(i))
            << "\": {\"skips\": " << skipCount[i] << ", \"cycles\": "
            << skipCycles[i] << "}";
    }
    out << "},\n";
    out << "  \"skip_length\": {\"count\": " << skipLengths.count()
        << ", \"p50\": " << num(skipLengths.percentile(0.5))
        << ", \"p90\": " << num(skipLengths.percentile(0.9))
        << ", \"p99\": " << num(skipLengths.percentile(0.99))
        << ", \"max\": " << num(skipLengths.max()) << "},\n";
    out << "  \"regimes\": {\"dormant\": " << regimeTotal(Regime::Dormant)
        << ", \"streaming\": " << regimeTotal(Regime::Streaming)
        << ", \"lockstep\": " << regimeTotal(Regime::Lockstep) << "},\n";
    out << "  \"scan\": {\"soa_scans\": " << scan.soaScans
        << ", \"reads_examined\": " << scan.readsExamined
        << ", \"dominance_skipped\": " << scan.dominanceSkipped
        << ", \"fallback_scans\": " << scan.fallbackScans << "}\n}\n";
    return out.str();
}

void
ProfileReport::print(std::FILE *out) const
{
    if (!enabled)
        return;
    double totalMs = 0.0;
    for (int i = 0; i < kPhaseCount; ++i)
        totalMs += static_cast<double>(phaseNs[i]) / 1e6;
    std::fprintf(out, "Simulator profile (%d run%s, %.2f ms profiled)\n",
                 runs, runs == 1 ? "" : "s", totalMs);
    std::fprintf(out, "  %-12s %12s %12s\n", "phase", "ms", "calls");
    for (int i = 0; i < kPhaseCount; ++i) {
        if (phaseCalls[i] == 0 && phaseNs[i] == 0)
            continue;
        std::fprintf(out, "  %-12s %12.3f %12llu\n",
                     phaseName(static_cast<Phase>(i)),
                     static_cast<double>(phaseNs[i]) / 1e6,
                     static_cast<unsigned long long>(phaseCalls[i]));
    }
    std::uint64_t skips = totalSkips();
    if (skips > 0) {
        std::fprintf(out,
                     "  horizon jumps: %llu spanning %llu cycles "
                     "(p50 %.0f, max %.0f)\n",
                     static_cast<unsigned long long>(skips),
                     static_cast<unsigned long long>(totalSkippedCycles()),
                     skipLengths.percentile(0.5), skipLengths.max());
        std::fprintf(out, "  bounded by:");
        for (int i = 0; i < kHorizonSourceCount; ++i)
            std::fprintf(out, " %s %llu",
                         horizonSourceName(static_cast<HorizonSource>(i)),
                         static_cast<unsigned long long>(skipCount[i]));
        std::fprintf(out, "\n");
    }
    std::uint64_t dorm = regimeTotal(Regime::Dormant);
    std::uint64_t stream = regimeTotal(Regime::Streaming);
    std::uint64_t lock = regimeTotal(Regime::Lockstep);
    if (dorm + stream + lock > 0)
        std::fprintf(out,
                     "  core regimes: dormant %llu, streaming %llu, "
                     "lockstep %llu cycles\n",
                     static_cast<unsigned long long>(dorm),
                     static_cast<unsigned long long>(stream),
                     static_cast<unsigned long long>(lock));
    if (scan.soaScans + scan.fallbackScans > 0) {
        double skipPct =
            scan.readsExamined + scan.dominanceSkipped > 0
                ? 100.0 * static_cast<double>(scan.dominanceSkipped) /
                      static_cast<double>(scan.readsExamined +
                                          scan.dominanceSkipped)
                : 0.0;
        std::fprintf(out,
                     "  soa scan: %llu scans, %llu reads examined, "
                     "%llu dominance-skipped (%.1f%%), %llu fallback\n",
                     static_cast<unsigned long long>(scan.soaScans),
                     static_cast<unsigned long long>(scan.readsExamined),
                     static_cast<unsigned long long>(scan.dominanceSkipped),
                     skipPct,
                     static_cast<unsigned long long>(scan.fallbackScans));
    }
}

} // namespace tcm::prof
