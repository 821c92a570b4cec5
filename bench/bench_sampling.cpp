/**
 * @file
 * BM_Sampling: interval-sampled runs versus full-length runs on the
 * Figure 4 grid. Renders the same measurement tools/claims gates on
 * (sim::paper::sampling), so the printed table and the sampling.*
 * claim verdicts can never disagree: per-scheduler full/sampled/relerr
 * for WS, MS and HS, then the summary row with the worst errors, the
 * fig4.* ordering re-check on the sampled document, and the simulated-
 * cycle and wall-clock speedups.
 *
 * Sampling parameters come from TCMSIM_SAMPLE ("W:K[:WARMUP]") when
 * set, else the SamplingConfig defaults (20k warmup + 3x15k windows).
 */

#include <cstdio>
#include <cstdlib>
#include <exception>

#include "bench_util.hpp"
#include "sim/paper_experiments.hpp"
#include "sim/sampling.hpp"
#include "sim/system_config.hpp"

int
main(int argc, char **argv)
{
    using namespace tcm;

    sim::ExperimentScale scale = sim::ExperimentScale::fromEnv();
    if (const char *env = std::getenv("TCMSIM_SAMPLE")) {
        std::string err;
        scale.sampling = sim::SamplingConfig::parse(env, &err);
        if (!scale.sampling.enabled) {
            std::fprintf(stderr, "FATAL: TCMSIM_SAMPLE: %s\n", err.c_str());
            return 1;
        }
    }
    bench::printHeader("BM_Sampling: interval-sampled vs full runs", scale);
    bench::noteSelfProfile();

    sim::SystemConfig config;
    sim::results::ResultsDoc doc;
    try {
        doc = sim::paper::sampling(config, scale);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "FATAL: %s\n", e.what());
        return 1;
    }

    std::printf("\n%-10s %-6s %10s %10s %9s\n", "scheduler", "metric",
                "full", "sampled", "relerr");
    static const char *const metrics[] = {"ws", "ms", "hs"};
    const sim::results::Row *summary = nullptr;
    for (const sim::results::Row &r : doc.rows) {
        if (r.series == "summary") {
            summary = &r;
            continue;
        }
        for (const char *m : metrics) {
            const double *full = r.find(std::string(m) + "_full");
            const double *sampled = r.find(std::string(m) + "_sampled");
            const double *relerr = r.find(std::string(m) + "_relerr");
            std::printf("%-10s %-6s %10.4f %10.4f %8.2f%%\n",
                        r.series.c_str(), m, full ? *full : 0.0,
                        sampled ? *sampled : 0.0,
                        relerr ? 100.0 * *relerr : 0.0);
        }
    }

    if (summary) {
        auto v = [&](const char *k) {
            const double *p = summary->find(k);
            return p ? *p : 0.0;
        };
        std::printf("\nworst relative error: WS %.2f%%  MS %.2f%%  "
                    "HS %.2f%%\n",
                    100.0 * v("ws_err_max"), 100.0 * v("ms_err_max"),
                    100.0 * v("hs_err_max"));
        std::printf("fig4 ordering claims on the sampled doc: %.0f/%.0f "
                    "failed\n",
                    v("fig4_claims_failed"), v("fig4_claims_total"));
        std::printf("simulated cycles: %.1fx fewer   wall clock: %.2fx "
                    "faster (%.2fs -> %.2fs)\n",
                    v("cycle_ratio"), v("speedup"), v("seconds_full"),
                    v("seconds_sampled"));
    }

    bench::writeJsonIfRequested(doc, argc, argv);
    return 0;
}
