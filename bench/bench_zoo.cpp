/**
 * @file
 * Scheduler zoo — the headline baselines (FR-FCFS, ATLAS, TCM) next to
 * the championship-style ports (BLISS, GHT, close-page FR-FCFS) and the
 * Tournament meta-scheduler, all on the exact Figure 4 workload
 * population so the rows are directly comparable with bench_fig4.
 *
 * Expected shape: BLISS lands near TCM on fairness at slightly lower
 * throughput; GHT trades fairness for locality-driven throughput;
 * FRFCFS-CP tracks FR-FCFS; Tournament stays within a few percent of
 * its best candidate on weighted speedup.
 *
 * The grid itself lives in sim::paper::zoo so tools/claims checks the
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
    bench::printHeader("Scheduler zoo: BLISS / GHT / FRFCFS-CP / Tournament",
                       scale);
    bench::noteSelfProfile();
    std::printf("workloads: %d (equal thirds at 50/75/100%% intensity)\n\n",
                3 * scale.workloadsPerCategory);

    sim::results::ResultsDoc doc = sim::paper::zoo(config, scale);
    auto val = [&doc](const char *sched, const char *metric) {
        const double *v = doc.find(sched, "", metric);
        return v ? *v : 0.0;
    };

    std::printf("%-11s %18s %15s %17s\n", "scheduler", "weighted speedup",
                "max slowdown", "harmonic speedup");
    for (const sim::results::Row &row : doc.rows)
        std::printf("%-11s %18.2f %15.2f %17.3f\n", row.series.c_str(),
                    val(row.series.c_str(), "ws"),
                    val(row.series.c_str(), "ms"),
                    val(row.series.c_str(), "hs"));

    std::printf("\nBLISS vs TCM:      WS %+6.1f%%,  MS %+6.1f%%\n",
                100.0 * (val("BLISS", "ws") / val("TCM", "ws") - 1.0),
                100.0 * (val("BLISS", "ms") / val("TCM", "ms") - 1.0));
    std::printf("GHT vs TCM:        WS %+6.1f%%,  MS %+6.1f%%\n",
                100.0 * (val("GHT", "ws") / val("TCM", "ws") - 1.0),
                100.0 * (val("GHT", "ms") / val("TCM", "ms") - 1.0));
    std::printf("Tournament vs TCM: WS %+6.1f%%,  MS %+6.1f%%\n",
                100.0 * (val("Tournament", "ws") / val("TCM", "ws") - 1.0),
                100.0 * (val("Tournament", "ms") / val("TCM", "ms") - 1.0));
    std::printf("FRFCFS-CP vs FR-FCFS: WS %+6.1f%%,  MS %+6.1f%%\n",
                100.0 * (val("FRFCFS-CP", "ws") / val("FR-FCFS", "ws") - 1.0),
                100.0 * (val("FRFCFS-CP", "ms") / val("FR-FCFS", "ms") - 1.0));

    bench::writeJsonIfRequested(doc, argc, argv);
    return 0;
}
