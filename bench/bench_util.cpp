#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

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
}

void
noteSelfProfile()
{
    // Surface the knob on stderr so a profiled run is visibly profiled
    // while stdout (golden-diffed) stays byte-stable. Bench runs have no
    // file names, so the profiles land only in the --json run block.
    if (prof::ProfileConfig::fromEnv().enabled)
        std::fprintf(stderr, "bench: simulator self-profile on, no per-run "
                             "files\n");
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
