/**
 * @file
 * sweepd — the resumable manifest runner CLI (sim/sweepd.hpp).
 *
 * Runs one manifest to one JSONL stream:
 *
 *   sweepd --state DIR --manifest FILE --out FILE [options]
 *
 * DIR holds the persistent alone-IPC stores; FILE.ckpt and
 * FILE.summary.json land next to the stream. Rerun the same command
 * after an interruption and it resumes from the last checkpoint. See
 * sim/sweepd.hpp for the manifest format and the checkpoint/resume and
 * persistent alone-IPC cache contracts.
 *
 * Options:
 *   --jobs N        worker threads (default: TCMSIM_JOBS, else all
 *                   hardware threads; 1 = serial)
 *   --batch N       jobs per dispatch batch / checkpoint granularity
 *                   (default: 4x workers)
 *   --stop-after N  stop cleanly after N jobs this session (testing:
 *                   equivalent to killing the run between batches)
 *   --quiet         suppress progress logging on stderr
 *
 * Exit status: 0 when the manifest finished (or the stop limit was
 * reached with work remaining — an interrupted run is not an error), 1
 * on a manifest/run failure, 2 on bad usage (including a malformed or
 * out-of-range number: --jobs >= 0, --batch and --stop-after >= 1).
 */

#include <cstdio>
#include <string>

#include "cli.hpp"
#include "sim/sweepd.hpp"

int
main(int argc, char **argv)
{
    using namespace tcm::sim::sweepd;
    const tcm::cli::Tool tool{"sweepd", " (see the file header for usage)"};

    Server::Options options;
    std::string manifest;
    std::string out;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                tool.die("missing option value");
            return argv[++i];
        };
        if (arg == "--state")
            options.stateDir = value();
        else if (arg == "--manifest")
            manifest = value();
        else if (arg == "--out")
            out = value();
        else if (arg == "--jobs")
            options.jobs = tool.intOption("--jobs", value(), 0);
        else if (arg == "--batch")
            options.batch = tool.intOption("--batch", value(), 1);
        else if (arg == "--stop-after")
            options.stopAfter = tool.u64Option("--stop-after", value(), 1);
        else if (arg == "--quiet")
            quiet = true;
        else
            tool.die("unknown option");
    }
    if (options.stateDir.empty())
        tool.die("--state is required");
    if (manifest.empty() || out.empty())
        tool.die("--manifest and --out are required");
    if (!quiet)
        options.log = [](const std::string &msg) {
            std::fprintf(stderr, "%s\n", msg.c_str());
        };

    RunOutcome outcome = Server(std::move(options)).runManifest(manifest, out);
    if (!outcome.ok) {
        std::fprintf(stderr, "sweepd: %s\n", outcome.error.c_str());
        return 1;
    }
    return 0;
}
