/**
 * @file
 * Reproduces Figure 4 — the paper's headline result: maximum slowdown vs
 * weighted speedup of FR-FCFS, STFM, PAR-BS, ATLAS and TCM averaged over
 * random workloads at 50/75/100 % memory intensity.
 *
 * Expected shape: TCM at the best (lower-right) corner — higher weighted
 * speedup than every prior algorithm and lower maximum slowdown; ATLAS
 * close on throughput but far worse on fairness; PAR-BS close on
 * fairness but worse on throughput.
 *
 * The grid itself lives in sim::paper::fig4 so tools/claims checks the
 * same numbers this bench prints.
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
    bench::printHeader("Figure 4: TCM vs prior schedulers (headline)",
                       scale);
    bench::noteSelfProfile();
    std::printf("workloads: %d (equal thirds at 50/75/100%% intensity)\n\n",
                3 * scale.workloadsPerCategory);

    sim::results::ResultsDoc doc = sim::paper::fig4(config, scale);
    auto val = [&doc](const char *sched, const char *metric) {
        const double *v = doc.find(sched, "", metric);
        return v ? *v : 0.0;
    };

    std::printf("%-10s %18s %15s %17s\n", "scheduler", "weighted speedup",
                "max slowdown", "harmonic speedup");
    for (const sim::results::Row &row : doc.rows)
        std::printf("%-10s %18.2f %15.2f %17.3f\n", row.series.c_str(),
                    val(row.series.c_str(), "ws"),
                    val(row.series.c_str(), "ms"),
                    val(row.series.c_str(), "hs"));

    std::printf("\nTCM vs ATLAS:  WS %+6.1f%% (paper +4.6%%),  MS %+6.1f%% "
                "(paper -38.6%%)\n",
                100.0 * (val("TCM", "ws") / val("ATLAS", "ws") - 1.0),
                100.0 * (val("TCM", "ms") / val("ATLAS", "ms") - 1.0));
    std::printf("TCM vs PAR-BS: WS %+6.1f%% (paper +7.6%%),  MS %+6.1f%% "
                "(paper -4.6%%)\n",
                100.0 * (val("TCM", "ws") / val("PAR-BS", "ws") - 1.0),
                100.0 * (val("TCM", "ms") / val("PAR-BS", "ms") - 1.0));

    bench::writeJsonIfRequested(doc, argc, argv);
    return 0;
}
