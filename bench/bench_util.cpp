#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/numfmt.hpp"
#include "prof/profiler.hpp"

namespace tcm::bench {

void
printHeader(const std::string &title, const sim::ExperimentScale &scale)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("scale: warmup=%llu measure=%llu cycles, %d workloads/category\n",
                static_cast<unsigned long long>(scale.warmup),
                static_cast<unsigned long long>(scale.measure),
                scale.workloadsPerCategory);
    std::printf("(override with TCMSIM_WARMUP / TCMSIM_CYCLES / TCMSIM_WORKLOADS)\n");
    std::printf("==============================================================\n");
    // runWorkload and paper::table4 honor the TCMSIM_PROFILE knob
    // (sim::requestedProfile); surface that on stderr so a profiled run
    // is visibly profiled while stdout (golden-diffed) stays
    // byte-stable. Runs that build a Simulator directly are not
    // profiled: fig2's Table 1 runs, cycleskip and micro_perf.
    prof::ProfileConfig pcfg = prof::ProfileConfig::fromEnv();
    if (pcfg.enabled)
        std::fprintf(stderr, "bench: simulator self-profile on%s%s\n",
                     pcfg.dir.empty() ? "" : ", writing to ",
                     pcfg.dir.c_str());
}

void
printAggregate(const sim::AggregateResult &r)
{
    std::printf("%-10s  WS=%6.2f  MS=%6.2f  HS=%6.3f\n", r.scheduler.c_str(),
                r.weightedSpeedup.mean(), r.maxSlowdown.mean(),
                r.harmonicSpeedup.mean());
}

std::string
fmt(double v, int precision)
{
    // std::to_chars, not snprintf: table rows feed goldens and diffs, so
    // they must not bend to the process locale's decimal separator.
    return formatDouble(v, precision);
}

std::string
jsonOutputPath(const std::string &bench, int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string(argv[i]) == "--json")
            return argv[i + 1];
    const char *dir = std::getenv("TCMSIM_BENCH_JSON");
    if (!dir || !*dir)
        return "";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        std::fprintf(stderr,
                     "bench: cannot create TCMSIM_BENCH_JSON dir %s\n",
                     dir);
        std::exit(1);
    }
    return std::string(dir) + "/BENCH_" + bench + ".json";
}

void
writeJsonIfRequested(const sim::results::ResultsDoc &doc, int argc,
                     char **argv)
{
    std::string path = jsonOutputPath(doc.bench, argc, argv);
    if (path.empty())
        return;
    try {
        doc.save(path);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench: %s\n", e.what());
        std::exit(1);
    }
    std::fprintf(stderr, "results json: %s\n", path.c_str());
}

} // namespace tcm::bench
