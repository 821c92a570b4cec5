/**
 * @file
 * sweep — batch experiment runner with CSV output.
 *
 * Runs a (scheduler x workload) grid and emits one CSV row per run,
 * ready for pandas/gnuplot. This is the tool behind "I want the Figure 4
 * scatter with my own axes". The grid is a sweepd manifest built in
 * memory (sim/sweepd.hpp): one job per scheduler x intensity x workload,
 * workload w of every intensity run with seed --seed + w.
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
 *                         write DIR/<point>_<scheduler>_seed<N>.jsonl +
 *                         .trace.json per run (Perfetto-loadable), where
 *                         <point> is the job's stream point
 *                         (ddr2-800_i0.5_w0_s1); DIR is created if
 *                         missing
 *
 * TCMSIM_PROFILE (prof/profiler.hpp) profiles the simulator itself;
 * sweep then prints one merged report per scheduler to stderr, and with
 * a directory also writes DIR/<point>_<scheduler>_seed<N>.profile.json
 * per run. CSV output is bit-identical either way.
 *
 * A malformed or out-of-range option value exits 2 with a message:
 * intensities must lie in [0,1]; workloads, cores, channels and cycles
 * must be >= 1; jobs, warmup and seed must be >= 0. A CSV or a per-run
 * file that cannot be written in full (a full disk included) exits 1
 * with a message.
 *
 * Columns: scheduler,intensity,workload,seed,ws,ms,hs
 * Row order and values are independent of --jobs: runs are independently
 * seeded and rows are emitted in grid order once every run completes.
 */

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "cli.hpp"
#include "sim/sweepd.hpp"

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

} // namespace

int
main(int argc, char **argv)
{
    const cli::Tool tool{"sweep", " (see the file header for usage)"};
    std::vector<std::string> schedulerNames = {"frfcfs", "stfm", "parbs",
                                               "atlas", "tcm"};
    std::vector<double> intensities = {0.5, 0.75, 1.0};
    int workloads = 8;
    sim::sweepd::Manifest grid; // cores, channels, cycles, warmup, seed
    int jobs = 0;
    std::string protocol;
    bool check = false;
    std::string telemetryDir;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                tool.die("missing option value");
            return argv[++i];
        };
        if (arg == "--schedulers")
            schedulerNames = splitCommas(value());
        else if (arg == "--intensity") {
            intensities.clear();
            for (const std::string &v : splitCommas(value()))
                intensities.push_back(tool.doubleOption(
                    "--intensity", v.c_str(), 1.0, "fractions in [0,1]"));
        } else if (arg == "--workloads")
            workloads = tool.intOption("--workloads", value(), 1);
        else if (arg == "--cores")
            grid.cores = tool.intOption("--cores", value(), 1);
        else if (arg == "--channels")
            grid.channels = tool.intOption("--channels", value(), 1);
        else if (arg == "--cycles")
            grid.measure = tool.u64Option("--cycles", value(), 1);
        else if (arg == "--warmup")
            grid.warmup = tool.u64Option("--warmup", value(), 0);
        else if (arg == "--seed")
            grid.workloadSeed = tool.u64Option("--seed", value(), 0);
        else if (arg == "--sample") {
            std::string err;
            grid.sampling = sim::SamplingConfig::parse(value(), &err);
            if (!grid.sampling.enabled)
                tool.die(err);
        }
        else if (arg == "--jobs")
            jobs = tool.intOption("--jobs", value(), 0);
        else if (arg == "--protocol")
            protocol = value();
        else if (arg == "--check")
            check = true;
        else if (arg == "--telemetry")
            telemetryDir = value();
        else
            tool.die("unknown option");
    }

    sim::SystemConfig base;
    if (!protocol.empty()) {
        std::string err = base.selectProtocol(protocol);
        if (!err.empty())
            tool.die(err);
    }
    base.protocolCheck = check;
    if (!telemetryDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(telemetryDir, ec);
        if (ec)
            tool.die("cannot create the --telemetry directory");
        base.telemetry.enabled = true;
        base.telemetry.dir = telemetryDir;
    }

    // The jobs in CSV order: scheduler, then intensity, then workload.
    for (const std::string &name : schedulerNames) {
        sched::SpecLookup lookup = sched::specByName(name);
        if (!lookup.ok)
            tool.die(lookup.error);
        for (double intensity : intensities)
            for (int w = 0; w < workloads; ++w)
                grid.jobs.push_back(
                    {name, base.protocol, intensity, w,
                     grid.workloadSeed + static_cast<std::uint64_t>(w)});
    }

    ThreadPool pool(jobs);
    sim::sweepd::AloneCaches caches = sim::sweepd::makeCaches(grid, base);
    std::vector<sim::RunResult> runs;
    try {
        runs = sim::sweepd::runJobs(grid, base, caches, 0, grid.jobs.size(),
                                    pool);
    } catch (const std::exception &e) {
        // A failed run, or a per-run file (telemetry, profile) that
        // cannot be written.
        std::fprintf(stderr, "sweep: %s\n", e.what());
        return 1;
    }

    std::printf("scheduler,intensity,workload,seed,ws,ms,hs\n");
    std::uint64_t violations = 0;
    for (std::size_t j = 0; j < runs.size(); ++j) {
        const sim::sweepd::JobSpec &job = grid.jobs[j];
        const sim::RunResult &r = runs[j];
        std::printf("%s,%.2f,%d,%llu,%.4f,%.4f,%.4f\n", job.scheduler.c_str(),
                    job.intensity, job.mixIndex,
                    static_cast<unsigned long long>(job.seed),
                    r.metrics.weightedSpeedup, r.metrics.maxSlowdown,
                    r.metrics.harmonicSpeedup);
        violations += r.protocolViolations;
        if (r.protocolViolations != 0)
            std::fprintf(stderr, "sweep: %s intensity %.2f workload %d:\n%s",
                         job.scheduler.c_str(), job.intensity, job.mixIndex,
                         r.protocolReport.c_str());
    }
    if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
        std::fprintf(stderr, "sweep: cannot write the CSV to stdout\n");
        return 1;
    }
    if (check) {
        std::fprintf(stderr,
                     "sweep: protocol audit: %llu violation(s) across "
                     "%zu runs\n",
                     static_cast<unsigned long long>(violations),
                     runs.size());
        if (violations != 0)
            return 1;
    }
    if (runs.front().profile) {
        // TCMSIM_PROFILE profiled every run: one aggregated self-profile
        // per scheduler, across every intensity and workload. stderr, so
        // `sweep > results.csv` pipelines stay clean.
        const std::size_t perScheduler = runs.size() / schedulerNames.size();
        for (std::size_t s = 0; s < schedulerNames.size(); ++s) {
            prof::ProfileReport merged;
            for (std::size_t j = s * perScheduler;
                 j < (s + 1) * perScheduler; ++j)
                merged.merge(*runs[j].profile);
            std::fprintf(stderr, "sweep: profile [%s]\n",
                         schedulerNames[s].c_str());
            merged.print(stderr);
        }
    }
    return 0;
}
