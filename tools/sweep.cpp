/**
 * @file
 * sweep — batch experiment runner with CSV output.
 *
 * Runs a (scheduler x workload) grid and emits one CSV row per run,
 * ready for pandas/gnuplot. This is the tool behind "I want the Figure 4
 * scatter with my own axes".
 *
 * Usage:
 *   sweep [options] > results.csv
 *     --schedulers LIST   comma list of frfcfs,fcfs,fqm,stfm,parbs,
 *                         atlas,tcm,bliss,ght,frfcfs-cp,tournament
 *                         (default: the paper's five)
 *     --intensity LIST    comma list of fractions (default 0.5,0.75,1.0)
 *     --workloads N       workloads per intensity (default 8)
 *     --cores N           threads per workload (default 24)
 *     --channels N        memory controllers (default 4)
 *     --cycles N          measured cycles (default 300000)
 *     --warmup N          warmup cycles (default 50000)
 *     --seed N            base seed (default 1)
 *     --sample W:K[:WARMUP]
 *                         interval sampling (sim/sampling.hpp): simulate
 *                         WARMUP (default 30000) + K windows of W cycles
 *                         instead of the full --warmup/--cycles run, with
 *                         scheduler time constants still scaled to the
 *                         full --cycles so the sampled run is a prefix
 *                         slice of the full run's dynamics. Rows keep
 *                         the same columns, carrying sampled estimates
 *     --jobs N            worker threads (default: TCMSIM_JOBS, else all
 *                         hardware threads; 1 = serial)
 *     --protocol NAME     DRAM protocol preset (ddr2-800, ddr3-1333,
 *                         ddr3-1600, ddr4-2400; default ddr2-800)
 *     --check             attach the independent protocol checker
 *                         to every run; prints an audit summary to
 *                         stderr and exits 1 on any violation
 *     --telemetry DIR     record in-run telemetry (interval samples,
 *                         scheduler decisions, lifecycle latencies) and
 *                         write DIR/i<intensity>_<scheduler>_seed<N>
 *                         .jsonl + .trace.json per run (Perfetto-
 *                         loadable); DIR is created if missing
 *     --profile[=DIR]     profile the simulator itself (wall-clock
 *                         phases, cycle-skip horizon attribution, core
 *                         regimes, scan efficiency); prints one
 *                         aggregated report per scheduler to stderr.
 *                         With =DIR, also writes DIR/i<intensity>_
 *                         <scheduler>_seed<N>.profile.json per run.
 *                         CSV output is bit-identical either way.
 *
 * A malformed or out-of-range option value exits 2 with a message:
 * intensities must lie in [0,1]; workloads, cores, channels and cycles
 * must be >= 1; jobs, warmup and seed must be >= 0.
 *
 * Columns: scheduler,intensity,workload,seed,ws,ms,hs
 * Row order and values are independent of --jobs: runs are independently
 * seeded and results are emitted in grid order after each intensity's
 * (scheduler x workload) matrix completes.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/numfmt.hpp"
#include "sim/experiment.hpp"
#include "workload/mixes.hpp"

namespace {

using namespace tcm;

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t comma = s.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(s.substr(start));
            break;
        }
        out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

[[noreturn]] void
die(const char *msg)
{
    std::fprintf(stderr, "sweep: %s (see the file header for usage)\n",
                 msg);
    std::exit(2);
}

[[noreturn]] void
dieBadValue(const char *flag, const std::string &text,
            const std::string &want)
{
    die((std::string(flag) + " needs " + want + ", got '" + text + "'")
            .c_str());
}

/** Whole-string integer option value >= @p min, or exit 2. */
int
intOption(const char *flag, const char *text, int min)
{
    int v = 0;
    if (!parseInt(text, &v) || v < min)
        dieBadValue(flag, text, "an integer >= " + std::to_string(min));
    return v;
}

/** Whole-string unsigned option value >= @p min, or exit 2. */
std::uint64_t
u64Option(const char *flag, const char *text, std::uint64_t min)
{
    std::uint64_t v = 0;
    if (!parseU64(text, &v) || v < min)
        dieBadValue(flag, text, "an integer >= " + std::to_string(min));
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> schedulerNames = {"frfcfs", "stfm", "parbs",
                                               "atlas", "tcm"};
    std::vector<double> intensities = {0.5, 0.75, 1.0};
    int workloads = 8;
    int cores = 24;
    int channels = 4;
    Cycle cycles = 300'000;
    Cycle warmup = 50'000;
    std::uint64_t seed = 1;
    int jobs = 0;
    sim::SamplingConfig sampling;
    std::string protocol;
    bool check = false;
    std::string telemetryDir;
    bool profile = false;
    std::string profileDir;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                die("missing option value");
            return argv[++i];
        };
        if (arg == "--schedulers")
            schedulerNames = splitCommas(value());
        else if (arg == "--intensity") {
            intensities.clear();
            for (const std::string &v : splitCommas(value())) {
                double x = 0.0;
                if (!parseDouble(v, &x) || !(x >= 0.0 && x <= 1.0))
                    dieBadValue("--intensity", v, "fractions in [0,1]");
                intensities.push_back(x);
            }
        } else if (arg == "--workloads")
            workloads = intOption("--workloads", value(), 1);
        else if (arg == "--cores")
            cores = intOption("--cores", value(), 1);
        else if (arg == "--channels")
            channels = intOption("--channels", value(), 1);
        else if (arg == "--cycles")
            cycles = u64Option("--cycles", value(), 1);
        else if (arg == "--warmup")
            warmup = u64Option("--warmup", value(), 0);
        else if (arg == "--seed")
            seed = u64Option("--seed", value(), 0);
        else if (arg == "--sample") {
            std::string err;
            sampling = sim::SamplingConfig::parse(value(), &err);
            if (!sampling.enabled)
                die(err.c_str());
        }
        else if (arg == "--jobs")
            jobs = intOption("--jobs", value(), 0);
        else if (arg == "--protocol")
            protocol = value();
        else if (arg == "--check")
            check = true;
        else if (arg == "--telemetry")
            telemetryDir = value();
        else if (arg == "--profile")
            profile = true;
        else if (arg.rfind("--profile=", 0) == 0) {
            profile = true;
            profileDir = arg.substr(std::strlen("--profile="));
        } else
            die("unknown option");
    }

    sim::SystemConfig config;
    if (!protocol.empty()) {
        std::string err = config.selectProtocol(protocol);
        if (!err.empty())
            die(err.c_str());
    }
    config.numCores = cores;
    config.numChannels = channels;
    config.protocolCheck = check;
    if (!telemetryDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(telemetryDir, ec);
        if (ec)
            die("cannot create the --telemetry directory");
        config.telemetry.enabled = true;
        config.telemetry.dir = telemetryDir;
    }
    if (profile) {
        config.profile.enabled = true;
        if (!profileDir.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(profileDir, ec);
            if (ec)
                die("cannot create the --profile directory");
            config.profile.dir = profileDir;
        }
    }
    sim::ExperimentScale scale;
    scale.measure = cycles;
    scale.warmup = warmup;
    scale.workloadsPerCategory = workloads;
    scale.sampling = sampling;

    sim::AloneIpcCache cache(config, scale.effectiveWarmup(), scale.effectiveMeasure());

    std::vector<sched::SchedulerSpec> specs(schedulerNames.size());
    for (std::size_t s = 0; s < schedulerNames.size(); ++s) {
        sched::SpecLookup lookup = sched::specByName(schedulerNames[s]);
        if (!lookup.ok)
            die(lookup.error.c_str());
        specs[s] = lookup.spec;
    }

    // One (scheduler x workload) matrix per intensity; workload w uses
    // seed + w exactly as the serial loop did.
    std::vector<std::vector<std::vector<sim::RunResult>>> byIntensity;
    byIntensity.reserve(intensities.size());
    for (double intensity : intensities) {
        auto set = workload::workloadSet(
            workloads, cores, intensity,
            seed + static_cast<std::uint64_t>(intensity * 1000));
        // Workload w reuses seed + w at every intensity, so the file
        // names need the intensity to stay distinct. The profile prefix
        // also names TCMSIM_PROFILE files (sim::requestedProfile).
        sim::SystemConfig runConfig = config;
        char prefix[32];
        std::snprintf(prefix, sizeof prefix, "i%.2f_", intensity);
        runConfig.telemetry.filePrefix = prefix;
        runConfig.profile.filePrefix = prefix;
        byIntensity.push_back(sim::runMatrix(runConfig, set, specs, scale,
                                             cache, seed, jobs));
    }

    std::printf("scheduler,intensity,workload,seed,ws,ms,hs\n");
    std::uint64_t violations = 0;
    std::uint64_t auditedRuns = 0;
    for (std::size_t s = 0; s < specs.size(); ++s) {
        for (std::size_t i = 0; i < intensities.size(); ++i) {
            const auto &runs = byIntensity[i][s];
            for (std::size_t w = 0; w < runs.size(); ++w) {
                const sim::RunResult &r = runs[w];
                std::printf("%s,%.2f,%zu,%llu,%.4f,%.4f,%.4f\n",
                            schedulerNames[s].c_str(), intensities[i], w,
                            static_cast<unsigned long long>(seed + w),
                            r.metrics.weightedSpeedup,
                            r.metrics.maxSlowdown,
                            r.metrics.harmonicSpeedup);
                if (check) {
                    ++auditedRuns;
                    violations += r.protocolViolations;
                    if (r.protocolViolations != 0)
                        std::fprintf(stderr,
                                     "sweep: %s intensity %.2f workload "
                                     "%zu:\n%s",
                                     schedulerNames[s].c_str(),
                                     intensities[i], w,
                                     r.protocolReport.c_str());
                }
            }
        }
    }
    if (check) {
        std::fprintf(stderr,
                     "sweep: protocol audit: %llu violation(s) across "
                     "%llu runs\n",
                     static_cast<unsigned long long>(violations),
                     static_cast<unsigned long long>(auditedRuns));
        if (violations != 0)
            return 1;
    }
    if (profile) {
        // One aggregated self-profile per scheduler, across every
        // intensity and workload. stderr, so `sweep > results.csv`
        // pipelines stay clean.
        for (std::size_t s = 0; s < specs.size(); ++s) {
            prof::ProfileReport merged;
            for (std::size_t i = 0; i < intensities.size(); ++i)
                for (const sim::RunResult &r : byIntensity[i][s])
                    if (r.profile)
                        merged.merge(*r.profile);
            std::fprintf(stderr, "sweep: profile [%s]\n",
                         schedulerNames[s].c_str());
            merged.print(stderr);
        }
    }
    return 0;
}
