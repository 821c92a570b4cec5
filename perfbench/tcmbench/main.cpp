/**
 * @file
 * tcmbench — run one benchmark workload and print its metrics.
 *
 *   tcmbench --workload saturated|light|fleet --seed N --seconds S
 *            --trace 0|1 [--out DIR] [--commit SHA] [--source-digest SHA256]
 *
 * Prints a provenance block, notes, a metric table (name, value, unit)
 * and, as the last line, one JSON object: {"correct", "attempted",
 * "failed", "metrics"}. --trace 0 reports the end-to-end metrics of an
 * untraced run; --trace 1 the per-layer metrics of a traced run, whose
 * spans are written as Chrome trace-event JSON under DIR/traces.
 * Exit status: 0 when the run completed (its checks may still have
 * failed: see "correct"), 1 when it could not run, 2 on bad usage.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/json.hpp"
#include "common/numfmt.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Result;

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "tcmbench: %s (see the file header for usage)\n",
                 why.c_str());
    std::exit(2);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                return line.substr(colon + 2);
        }
    return "unknown";
}

/** VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
 *  exec, so a process started from a larger parent would report the
 *  parent's peak. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/**
 * Every traced run prints the same metric set: layers a workload does
 * not exercise (sweepd on the grids, schedulers outside its list) read 0.
 */
void
padUnexercised(Result &r)
{
    auto has = [&](const std::string &name) {
        for (const Metric &m : r.perLayer)
            if (m.name == name)
                return true;
        return false;
    };
    const std::pair<const char *, const char *> sweepd[] = {
        {"sim.sweepd_cold_pass_s", "s"},
        {"sim.sweepd_warm_pass_s", "s"},
        {"sim.sweepd_resume_pass_s", "s"},
        {"sim.sweepd_batch_s_p50", "s"},
        {"sim.sweepd_warm_cache_misses", "count"}};
    for (const auto &[name, unit] : sweepd)
        if (!has(name))
            r.perLayer.push_back({name, 0.0, unit});
    std::vector<std::string> names = perfbench::gridSchedulers();
    for (const std::string &n : perfbench::fleetSchedulers())
        if (std::find(names.begin(), names.end(), n) == names.end())
            names.push_back(n);
    for (const std::string &n : names) {
        const std::string name = "sched." + n + ".job_s_p50";
        if (!has(name))
            r.perLayer.push_back({name, 0.0, "s"});
    }
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (!std::isfinite(metrics[i].value))
            throw std::runtime_error("metric " + metrics[i].name +
                                     " is not finite");
        out += (i ? ", " : "") + tcm::json::quote(metrics[i].name) +
               ": {\"value\": " + tcm::formatDouble(metrics[i].value) +
               ", \"unit\": " + tcm::json::quote(metrics[i].unit) + "}";
    }
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options o;
    // One pool worker per hardware thread: the most a user's sweep gets.
    const int nproc = static_cast<int>(std::thread::hardware_concurrency());
    o.workers = std::max(1, nproc);
    o.outDir = ".bench_build/perfbench-out";
    std::string commit = "unavailable";
    std::string digest = "unavailable";
    int trace = -1;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = value;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            haveSeed = *end == '\0' && !value.empty();
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(o.seconds > 0.0))
                usage("--seconds must be a positive number");
        } else if (arg == "--trace") {
            trace = value == "0" ? 0 : value == "1" ? 1 : -1;
        } else if (arg == "--out") {
            o.outDir = value;
        } else if (arg == "--commit") {
            commit = value;
        } else if (arg == "--source-digest") {
            digest = value;
        } else {
            usage("unknown option " + arg);
        }
    }
    if (o.workload != "saturated" && o.workload != "light" &&
        o.workload != "fleet")
        usage("--workload must be saturated, light or fleet");
    if (!haveSeed)
        usage("--seed must be a whole number");
    if (trace < 0)
        usage("--trace must be 0 or 1");
    o.trace = trace == 1;
    // Profiling must be what the benchmark asks for, not inherited.
    ::unsetenv("TCMSIM_PROFILE");

    Result r;
    try {
        std::filesystem::create_directories(o.outDir);
        r = o.workload == "fleet"       ? perfbench::runFleet(o)
            : o.workload == "saturated" ? perfbench::runGrid(o, 1.0)
                                        : perfbench::runGrid(o, 0.0);
        r.endToEnd.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tcmbench: %s\n", e.what());
        return 1;
    }
    if (o.trace)
        padUnexercised(r);

    const std::string tag = o.workload + "-seed" + std::to_string(o.seed) +
                            "-trace" + std::to_string(trace);
    std::vector<std::pair<std::string, std::string>> prov = {
        {"workload", o.workload},
        {"seed", std::to_string(o.seed)},
        {"run_seconds", tcm::formatDouble(o.seconds)},
        {"workers", std::to_string(o.workers)},
        {"nproc", std::to_string(nproc)},
        {"cpu", cpuModel()},
        {"compiler", PERFBENCH_COMPILER},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"git_commit", commit},
        {"source_sha256", digest}};
    prov.insert(prov.end(), r.scale.begin(), r.scale.end());

    const std::vector<Metric> &shown = o.trace ? r.perLayer : r.endToEnd;
    std::string line;
    try {
        std::ostringstream json;
        json << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
             << ", \"attempted\": " << r.attempted
             << ", \"failed\": " << r.failed
             << ", \"metrics\": " << metricsJson(shown) << "}";
        line = json.str();

        // The result record: provenance, checks and every metric.
        std::filesystem::create_directories(o.outDir + "/results");
        std::ofstream rec(o.outDir + "/results/" + tag + ".json");
        rec << "{\"provenance\": {";
        for (std::size_t i = 0; i < prov.size(); ++i)
            rec << (i ? ", " : "") << tcm::json::quote(prov[i].first) << ": "
                << tcm::json::quote(prov[i].second);
        rec << "},\n \"notes\": [";
        for (std::size_t i = 0; i < r.notes.size(); ++i)
            rec << (i ? ", " : "") << tcm::json::quote(r.notes[i]);
        rec << "],\n \"result\": " << line << "}\n";
        if (!rec.flush())
            throw std::runtime_error("cannot write the result record");
        if (o.trace) {
            std::filesystem::create_directories(o.outDir + "/traces");
            r.spans->writeChromeTrace(o.outDir + "/traces/" + tag +
                                         ".trace.json",
                                     "tcmbench " + o.workload);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tcmbench: %s\n", e.what());
        return 1;
    }

    std::printf("tcmbench %s\n", tag.c_str());
    for (const auto &[key, value] : prov)
        std::printf("  %-22s %s\n", key.c_str(), value.c_str());
    for (const std::string &note : r.notes)
        std::printf("%s\n", note.c_str());
    auto table = [](const char *title, const std::vector<Metric> &metrics) {
        std::printf("%-36s %16s  %s\n", title, "value", "unit");
        for (const Metric &m : metrics)
            std::printf("  %-34s %16.6g  %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    };
    // A traced run's end-to-end figures come from its untraced half.
    table(o.trace ? "end-to-end (untraced half)" : "end-to-end", r.endToEnd);
    if (o.trace)
        table("per-layer (traced)", r.perLayer);
    const double attempted =
        static_cast<double>(std::max<std::uint64_t>(r.attempted, 1));
    std::printf("  %-34s %16.6g  %s (%llu failed of %llu attempted)\n",
                "failed_frac", static_cast<double>(r.failed) / attempted,
                "ratio", static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    std::printf("record: %s/results/%s.json\n", o.outDir.c_str(), tag.c_str());
    if (o.trace)
        std::printf("trace:  %s/traces/%s.trace.json\n", o.outDir.c_str(),
                    tag.c_str());
    std::printf("%s\n", line.c_str());
    return 0;
}
