/**
 * @file
 * Paper-claims regression gate. Runs the fig4 / table4 / table6 / zoo
 * experiment grids through the shared drivers (sim/paper_experiments),
 * evaluates the declarative claim registry (sim/claims) against the
 * structured results, and optionally diffs each fresh document against
 * the committed golden BENCH_*.json baselines.
 *
 * Exit codes: 0 all claims pass (and baselines match, when given);
 * 1 at least one claim failed or a baseline diverged; 2 usage error.
 *
 * Typical invocations:
 *   claims --scale ci --baseline bench/golden --out claims-out
 *   claims --scale ci --baseline bench/golden --regold   # refresh goldens
 *   claims --list                                        # print registry
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "cli.hpp"
#include "sim/claims.hpp"
#include "sim/paper_experiments.hpp"
#include "sim/system_config.hpp"

namespace {

using namespace tcm;

struct Options
{
    // --scale ci: full run length (run-length effects — TCM quanta per
    // run, calibration probe windows — match the default scale) but half
    // the workload population, halving the wall-clock cost.
    sim::ExperimentScale scale{50'000, 300'000, 4, {}};
    bool defaultScale = false;
    int jobs = 0;
    std::string outDir;
    std::string baselineDir;
    bool regold = false;
    bool list = false;
    // Run every grid interval-sampled (sim/sampling.hpp defaults, or an
    // explicit W:K[:WARMUP] spec). Claim verdicts must still pass on the
    // sampled estimates — the CI leg behind the "sampling preserves the
    // conclusions" contract — but the numbers legitimately differ from
    // the full-run goldens, so --sampled excludes --baseline/--regold.
    bool sampled = false;
    sim::SamplingConfig samplingCfg; // applied to scale when sampled
};

void
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: claims [options]\n"
        "  --scale ci|default   experiment scale (ci: 300k cycles, 4\n"
        "                       workloads/category; default: the bench\n"
        "                       defaults / TCMSIM_* environment)\n"
        "  --jobs N             worker threads (0 = hardware)\n"
        "  --out DIR            write fresh BENCH_*.json documents here\n"
        "  --baseline DIR       diff fresh documents against the goldens\n"
        "                       in DIR (BENCH_fig4.json, ...)\n"
        "  --regold             rewrite the baseline documents instead of\n"
        "                       diffing (requires --baseline)\n"
        "  --list               print the claim registry and exit\n"
        "  --sampled[=W:K[:WARMUP]]\n"
        "                       run every grid interval-sampled (default\n"
        "                       30k warmup + 3x14k windows); the claim\n"
        "                       verdicts must still pass on the sampled\n"
        "                       estimates. Excludes --baseline/--regold\n"
        "                       (sampled numbers are not the goldens')\n"
        "Without --sampled the gate also runs the fig4 grid sampled\n"
        "and evaluates the sampling.* claims against the full grid.\n");
}

const cli::Tool kTool{"claims", "", [] { usage(stderr); }};

/** Baseline diff tolerances: a value matches within max(abs, rel*|base|). */
constexpr double kRelTol = 0.02;
constexpr double kAbsTol = 0.02;

void
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                kTool.die(std::string(flag) + " needs a value");
            return argv[++i];
        };
        if (arg == "--scale") {
            const char *v = value("--scale");
            if (std::strcmp(v, "ci") == 0) {
                opt.defaultScale = false;
            } else if (std::strcmp(v, "default") == 0) {
                opt.defaultScale = true;
                opt.scale = sim::ExperimentScale::fromEnv();
            } else {
                kTool.die(std::string("unknown scale '") + v + "'");
            }
        } else if (arg == "--jobs") {
            opt.jobs = kTool.intOption("--jobs", value("--jobs"), 0);
        } else if (arg == "--out") {
            opt.outDir = value("--out");
        } else if (arg == "--baseline") {
            opt.baselineDir = value("--baseline");
        } else if (arg == "--regold") {
            opt.regold = true;
        } else if (arg == "--list") {
            opt.list = true;
        } else if (arg == "--sampled" ||
                   arg.rfind("--sampled=", 0) == 0) {
            opt.sampled = true;
            opt.samplingCfg.enabled = true;
            if (arg.rfind("--sampled=", 0) == 0) {
                std::string err;
                opt.samplingCfg = sim::SamplingConfig::parse(
                    arg.substr(std::strlen("--sampled=")), &err);
                if (!opt.samplingCfg.enabled)
                    kTool.die(err);
            }
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            std::exit(0);
        } else {
            kTool.die("unknown option '" + arg + "'");
        }
    }
    if (opt.regold && opt.baselineDir.empty())
        kTool.die("--regold requires --baseline DIR");
    if (opt.sampled && !opt.baselineDir.empty())
        kTool.die("--sampled excludes --baseline/--regold (sampled "
                  "estimates legitimately differ from the full-run "
                  "goldens)");
}

bool
ensureDir(const std::string &dir)
{
    if (::mkdir(dir.c_str(), 0777) == 0 || errno == EEXIST)
        return true;
    std::fprintf(stderr, "claims: cannot create %s: %s\n", dir.c_str(),
                 std::strerror(errno));
    return false;
}

std::string
docFile(const std::string &dir, const sim::results::ResultsDoc &doc)
{
    return dir + "/BENCH_" + doc.bench + ".json";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tcm;

    Options opt;
    parseArgs(argc, argv, opt);

    std::vector<sim::claims::Claim> registry = sim::claims::paperClaims();
    // The sampling.* claims read the paper::sampling probe document,
    // which compares the full fig4 grid with a sampled one; a sampled
    // leg has no full grid to compare against.
    if (opt.sampled) {
        std::erase_if(registry, [](const sim::claims::Claim &c) {
            return c.id.rfind("sampling.", 0) == 0;
        });
    }
    if (opt.list) {
        for (const sim::claims::Claim &c : registry)
            std::printf("%-32s %s\n", c.id.c_str(), c.description.c_str());
        return 0;
    }

    if (opt.sampled) {
        opt.scale.sampling = opt.samplingCfg;
        // Fine-margin MS claims need the full horizon (see
        // Claim::fullHorizonOnly); every claim that survives this
        // filter must pass on the sampled documents.
        std::size_t before = registry.size();
        std::erase_if(registry, [](const sim::claims::Claim &c) {
            return c.fullHorizonOnly;
        });
        std::fprintf(stderr,
                     "claims: sampled leg skips %zu full-horizon-only "
                     "claim(s) (fine-margin MS comparisons)\n",
                     before - registry.size());
    }

    sim::SystemConfig config;
    std::fprintf(stderr,
                 "claims: scale %s (warmup %llu, measure %llu, %d "
                 "workloads/category), sampling %s\n",
                 opt.defaultScale ? "default" : "ci",
                 static_cast<unsigned long long>(opt.scale.warmup),
                 static_cast<unsigned long long>(opt.scale.measure),
                 opt.scale.workloadsPerCategory,
                 opt.scale.sampling.describe().c_str());

    std::vector<sim::results::ResultsDoc> docs;
    // The sampling-probe doc carries wall-clock timings, which
    // legitimately vary run to run and across machines — it feeds the
    // claim registry and is written to --out for inspection, but is
    // never diffed against (or regolded into) the baselines.
    std::vector<sim::results::ResultsDoc> timingDocs;
    try {
        std::fprintf(stderr, "claims: running fig4 grid...\n");
        docs.push_back(sim::paper::fig4(config, opt.scale, opt.jobs));
        std::fprintf(stderr, "claims: running table4 calibration...\n");
        docs.push_back(sim::paper::table4(config, opt.scale));
        std::fprintf(stderr, "claims: running table6 shuffling grid...\n");
        docs.push_back(sim::paper::table6(config, opt.scale, opt.jobs));
        std::fprintf(stderr, "claims: running scheduler-zoo grid...\n");
        docs.push_back(sim::paper::zoo(config, opt.scale, opt.jobs));
        if (!opt.sampled) {
            // The sampled grid simulates about a fifth of the full
            // one's cycles, so the probe adds little to the gate.
            std::fprintf(stderr,
                         "claims: running sampling probe (sampled fig4 "
                         "grid)...\n");
            // docs[0] is the fig4 document just produced at this exact
            // scale/config — the probe reuses it as the full-run leg.
            timingDocs.push_back(sim::paper::sampling(
                config, opt.scale, opt.jobs, &docs[0]));
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "claims: experiment failed: %s\n", e.what());
        return 1;
    }

    sim::claims::ResultSet set;
    for (const sim::results::ResultsDoc &doc : docs)
        set.add(doc);
    for (const sim::results::ResultsDoc &doc : timingDocs)
        set.add(doc);

    std::vector<sim::claims::Outcome> outcomes =
        sim::claims::evaluateAll(registry, set);
    sim::claims::printVerdictTable(registry, outcomes, stdout);
    int failures = sim::claims::failureCount(outcomes);

    if (!opt.outDir.empty()) {
        if (!ensureDir(opt.outDir))
            return 2;
        std::vector<const sim::results::ResultsDoc *> outDocs;
        for (const sim::results::ResultsDoc &doc : docs)
            outDocs.push_back(&doc);
        for (const sim::results::ResultsDoc &doc : timingDocs)
            outDocs.push_back(&doc);
        for (const sim::results::ResultsDoc *doc : outDocs) {
            std::string path = docFile(opt.outDir, *doc);
            try {
                doc->save(path);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "claims: %s\n", e.what());
                return 2;
            }
            std::fprintf(stderr, "claims: wrote %s\n", path.c_str());
        }
    }

    int diverged = 0;
    if (!opt.baselineDir.empty() && opt.regold) {
        if (!ensureDir(opt.baselineDir))
            return 2;
        for (const sim::results::ResultsDoc &doc : docs) {
            std::string path = docFile(opt.baselineDir, doc);
            try {
                doc.save(path);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "claims: %s\n", e.what());
                return 2;
            }
            std::fprintf(stderr, "claims: regolded %s\n", path.c_str());
        }
    } else if (!opt.baselineDir.empty()) {
        for (const sim::results::ResultsDoc &doc : docs) {
            std::string path = docFile(opt.baselineDir, doc);
            sim::results::ResultsDoc baseline;
            try {
                baseline = sim::results::ResultsDoc::load(path);
            } catch (const std::exception &e) {
                std::printf("baseline %s: %s (run --regold?)\n",
                            path.c_str(), e.what());
                ++diverged;
                continue;
            }
            std::vector<std::string> lines =
                sim::claims::diff(doc, baseline, kRelTol, kAbsTol);
            if (lines.empty()) {
                std::printf("baseline %s: match (rel-tol %g, abs-tol %g)\n",
                            path.c_str(), kRelTol, kAbsTol);
                continue;
            }
            diverged += static_cast<int>(lines.size());
            std::printf("baseline %s: %zu mismatch(es)\n", path.c_str(),
                        lines.size());
            for (const std::string &line : lines)
                std::printf("  %s\n", line.c_str());
        }
    }

    if (failures > 0 || diverged > 0) {
        std::printf("\nclaims: FAIL (%d claim failure(s), %d baseline "
                    "mismatch(es))\n",
                    failures, diverged);
        return 1;
    }
    std::printf("\nclaims: OK (%zu claims, %zu baseline document(s))\n",
                registry.size(),
                opt.regold ? std::size_t{0}
                           : (opt.baselineDir.empty() ? std::size_t{0}
                                                      : docs.size()));
    return 0;
}
