/**
 * @file
 * tracegen — capture a synthetic benchmark clone to a trace file.
 *
 * Usage:
 *   tracegen <benchmark|custom> <output.trace> [count] [seed]
 *            [mpki rbl blp]       (when the first argument is "custom")
 *   tracegen dump <input.trace> <output.txt>
 *   tracegen convert <input.txt> <output.trace>
 *
 * count must be >= 1, mpki and blp finite and >= 0, rbl in [0,1];
 * a malformed or out-of-range number exits 2 with a message naming it.
 * A trace that cannot be read or written in full (a full disk
 * included) exits 1 with one line on stderr.
 *
 * Examples:
 *   tracegen mcf mcf.trace 1000000
 *   tracegen custom my.trace 500000 7 42.0 0.8 2.5
 *   tracegen dump mcf.trace mcf.txt       # binary -> editable text
 *   tracegen convert mine.txt mine.trace  # your trace -> replayable
 *
 * The resulting file replays through workload::FileTrace (see
 * examples/trace_replay.cpp). The text format (one record per line:
 * "<gap> <R|W> <channel> <bank> <row> <col>", after a "# geometry:"
 * header) is the interchange format for converting real traces.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cli.hpp"
#include "workload/benchmark_table.hpp"
#include "workload/trace_file.hpp"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <benchmark|custom> <output.trace> [count] "
                 "[seed] [mpki rbl blp]\n",
                 argv0);
    std::fprintf(stderr, "benchmarks: ");
    for (const auto &p : tcm::workload::benchmarkTable())
        std::fprintf(stderr, "%s ", p.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

/** The tool; a trace that cannot be read or written throws. */
int
run(int argc, char **argv)
{
    using namespace tcm::workload;

    if (argc < 3)
        return usage(argv[0]);

    std::string which = argv[1];
    std::string path = argv[2];

    if (which == "dump" || which == "convert") {
        if (argc != 4)
            return usage(argv[0]);
        if (which == "dump")
            dumpTraceAsText(argv[2], argv[3]);
        else
            convertTextTrace(argv[2], argv[3]);
        std::printf("%s: %s -> %s\n", which.c_str(), argv[2], argv[3]);
        return 0;
    }

    const tcm::cli::Tool tool{"tracegen"};
    std::uint64_t count =
        argc > 3 ? tool.u64Option("count", argv[3], 1) : 1'000'000;
    std::uint64_t seed = argc > 4 ? tool.u64Option("seed", argv[4], 0) : 1;

    ThreadProfile profile;
    if (which == "custom") {
        if (argc < 8)
            return usage(argv[0]);
        profile.name = "custom";
        profile.mpki = tool.doubleOption("mpki", argv[5], HUGE_VAL,
                                         "a finite number >= 0");
        profile.rbl =
            tool.doubleOption("rbl", argv[6], 1.0, "a fraction in [0,1]");
        profile.blp = tool.doubleOption("blp", argv[7], HUGE_VAL,
                                        "a finite number >= 0");
    } else {
        try {
            profile = benchmarkProfile(which);
        } catch (const std::out_of_range &) {
            std::fprintf(stderr, "unknown benchmark '%s'\n", which.c_str());
            return usage(argv[0]);
        }
    }

    Geometry geometry; // baseline: 4 channels x 4 banks
    captureSyntheticTrace(profile, geometry, seed, count, path);
    std::printf("wrote %llu records of %s (MPKI %.2f, RBL %.2f, BLP %.2f) "
                "to %s\n",
                static_cast<unsigned long long>(count),
                profile.name.c_str(), profile.mpki, profile.rbl,
                profile.blp, path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const tcm::workload::TraceFileError &e) {
        std::fprintf(stderr, "tracegen: %s\n", e.what());
        return 1;
    }
}
