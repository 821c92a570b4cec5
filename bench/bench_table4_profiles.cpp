/**
 * @file
 * Reproduces Table 4: benchmark characteristics. Each synthetic clone
 * runs alone on the baseline system; its measured MPKI, RBL and BLP are
 * compared against the paper's targets. This is the calibration evidence
 * that the trace generator substitution preserves scheduler-visible
 * behaviour.
 *
 * The measurement loop lives in sim::paper::table4 so tools/claims
 * gates on the same calibration errors this bench prints.
 */

#include <cstdio>

#include "bench_util.hpp"
#include "sim/paper_experiments.hpp"

int
main(int argc, char **argv)
{
    using namespace tcm;

    sim::SystemConfig config;
    sim::ExperimentScale scale = sim::ExperimentScale::fromEnv();
    bench::printHeader(
        "Table 4: synthetic clone calibration (measured alone vs paper)",
        scale);
    bench::noteSelfProfile();

    sim::results::ResultsDoc doc = sim::paper::table4(config, scale);

    std::printf("%-12s | %8s %8s %6s | %6s %6s %6s | %6s %6s %6s\n",
                "benchmark", "MPKI", "meas", "err%", "RBL", "meas", "err",
                "BLP", "meas", "err");
    for (const sim::results::Row &row : doc.rows) {
        if (row.series == "worst")
            continue;
        auto v = [&row](const char *metric) {
            const double *p = row.find(metric);
            return p ? *p : 0.0;
        };
        std::printf("%-12s | %8.2f %8.2f %5.1f%% | %6.3f %6.3f %+6.3f | "
                    "%6.2f %6.2f %+6.2f\n",
                    row.series.c_str(), v("mpki_target"), v("mpki"),
                    v("mpki_err_pct"), v("rbl_target"), v("rbl"),
                    v("rbl_err"), v("blp_target"), v("blp"), v("blp_err"));
    }

    const sim::results::Row &worst = doc.row("worst");
    std::printf("\nworst absolute errors: MPKI %.1f%%, RBL %.3f, BLP "
                "%.2f banks\n",
                *worst.find("mpki_err_pct"), *worst.find("rbl_err"),
                *worst.find("blp_err"));

    bench::writeJsonIfRequested(doc, argc, argv);
    return 0;
}
