/**
 * @file
 * sweepd — the sweep daemon CLI (sim/sweepd.hpp).
 *
 * One-shot mode runs a single manifest to a single JSONL stream:
 *
 *   sweepd --state DIR --manifest FILE --out FILE [options]
 *
 * Service mode drains (and optionally keeps watching) a spool:
 *
 *   sweepd --state DIR --once             # drain <state>/spool, exit
 *   sweepd --state DIR --watch SECONDS    # poll the spool forever
 *
 * Submit work to the service by writing "<name>.manifest" files into
 * <state>/spool (write-then-rename for atomicity); results stream to
 * <state>/results/<name>.jsonl and finished manifests move to
 * <state>/done. See sim/sweepd.hpp for the manifest format and the
 * checkpoint/resume and persistent alone-IPC cache contracts.
 *
 * Options:
 *   --jobs N        worker threads (default: TCMSIM_JOBS, else all
 *                   hardware threads; 1 = serial)
 *   --batch N       jobs per dispatch batch / checkpoint granularity
 *                   (default: 4x workers)
 *   --stop-after N  stop cleanly after N jobs this session (testing:
 *                   equivalent to killing the daemon between batches)
 *   --quiet         suppress progress logging on stderr
 *
 * Exit status: 0 when every requested manifest finished (or the stop
 * limit was reached with work remaining — an interrupted run is not an
 * error), 1 on a manifest/run failure, 2 on bad usage (including a
 * malformed or out-of-range number: --jobs >= 0, --batch,
 * --stop-after and --watch >= 1).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/numfmt.hpp"
#include "sim/sweepd.hpp"

namespace {

[[noreturn]] void
die(const char *msg)
{
    std::fprintf(stderr, "sweepd: %s (see the file header for usage)\n",
                 msg);
    std::exit(2);
}

[[noreturn]] void
dieBadValue(const char *flag, const char *text, int min)
{
    die((std::string(flag) + " needs an integer >= " + std::to_string(min) +
         ", got '" + text + "'")
            .c_str());
}

/** Whole-string integer option value >= @p min, or exit 2. */
int
intOption(const char *flag, const char *text, int min)
{
    int v = 0;
    if (!tcm::parseInt(text, &v) || v < min)
        dieBadValue(flag, text, min);
    return v;
}

/** Whole-string unsigned option value >= 1, or exit 2. */
std::uint64_t
countOption(const char *flag, const char *text)
{
    std::uint64_t v = 0;
    if (!tcm::parseU64(text, &v) || v < 1)
        dieBadValue(flag, text, 1);
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tcm::sim::sweepd;

    Server::Options options;
    std::string manifest;
    std::string out;
    bool once = false;
    int watchSeconds = -1;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                die("missing option value");
            return argv[++i];
        };
        if (arg == "--state")
            options.stateDir = value();
        else if (arg == "--manifest")
            manifest = value();
        else if (arg == "--out")
            out = value();
        else if (arg == "--jobs")
            options.jobs = intOption("--jobs", value(), 0);
        else if (arg == "--batch")
            options.batch = intOption("--batch", value(), 1);
        else if (arg == "--stop-after")
            options.stopAfter = countOption("--stop-after", value());
        else if (arg == "--once")
            once = true;
        else if (arg == "--watch")
            watchSeconds = intOption("--watch", value(), 1);
        else if (arg == "--quiet")
            quiet = true;
        else
            die("unknown option");
    }
    if (options.stateDir.empty())
        die("--state is required");
    if (!manifest.empty() != !out.empty())
        die("--manifest and --out go together");
    if (!manifest.empty() && (once || watchSeconds >= 0))
        die("--manifest mode excludes --once/--watch");
    if (manifest.empty() && !once && watchSeconds < 0)
        die("pick a mode: --manifest/--out, --once, or --watch");
    if (!quiet)
        options.log = [](const std::string &msg) {
            std::fprintf(stderr, "%s\n", msg.c_str());
        };

    Server server(std::move(options));

    if (!manifest.empty()) {
        RunOutcome outcome = server.runManifest(manifest, out);
        if (!outcome.ok) {
            std::fprintf(stderr, "sweepd: %s\n", outcome.error.c_str());
            return 1;
        }
        return 0;
    }

    if (once) {
        server.drainSpool();
        return 0;
    }

    for (;;) {
        server.drainSpool();
        std::this_thread::sleep_for(std::chrono::seconds(watchSeconds));
    }
}
