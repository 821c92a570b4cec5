/**
 * @file
 * Reproduces Table 6: fairness of the four shuffling algorithms —
 * round-robin, random, insertion, and TCM's dynamic switch — as the
 * average and variance of maximum slowdown across workloads.
 *
 * Paper: round-robin is worst (5.58 avg); random (5.13) and insertion
 * (4.96) are better but high-variance; dynamic TCM is best on both the
 * average (4.84) and the variance (0.85 vs ~1.5).
 *
 * As an ablation this bench also reports the literal-pseudocode reading
 * of insertion shuffle (see TcmParams::nicestAtTop). The grid lives in
 * sim::paper::table6 so tools/claims checks the same numbers.
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
    bench::printHeader("Table 6: maximum slowdown by shuffling algorithm",
                       scale);
    bench::noteSelfProfile();

    sim::results::ResultsDoc doc = sim::paper::table6(config, scale);

    std::printf("%-20s %12s %12s\n", "shuffling algorithm", "MS average",
                "MS variance");
    for (const sim::results::Row &row : doc.rows)
        std::printf("%-20s %12.2f %12.2f\n", row.series.c_str(),
                    *row.find("ms_avg"), *row.find("ms_var"));
    std::printf("\npaper (Table 6): round-robin 5.58/1.61, random "
                "5.13/1.53, insertion 4.96/1.45,\nTCM dynamic 4.84/0.85 — "
                "dynamic switching wins on both average and variance.\n");

    bench::writeJsonIfRequested(doc, argc, argv);
    return 0;
}
