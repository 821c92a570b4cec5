/**
 * @file
 * Reproduces Figure 1: unfairness (maximum slowdown) vs system
 * throughput (weighted speedup) of the four prior schedulers — FR-FCFS,
 * STFM, PAR-BS, ATLAS — averaged over random workloads of 50/75/100 %
 * memory intensity (a population of its own, per-intensity seeds
 * 1050/1075/1100; Figure 4 seeds its population 2050/2075/2100).
 *
 * Paper's reading: PAR-BS is most fair, ATLAS has the highest
 * throughput, no prior scheduler wins both.
 */

#include <cstdio>

#include "bench_util.hpp"
#include "sim/experiment.hpp"
#include "workload/mixes.hpp"

int
main(int argc, char **argv)
{
    using namespace tcm;

    sim::SystemConfig config;
    sim::ExperimentScale scale = sim::ExperimentScale::fromEnv();
    bench::printHeader(
        "Figure 1: performance vs fairness of prior scheduling algorithms",
        scale);

    std::vector<std::vector<workload::ThreadProfile>> workloads;
    for (double intensity : {0.5, 0.75, 1.0}) {
        auto set = workload::workloadSet(scale.workloadsPerCategory,
                                         config.numCores, intensity,
                                         1000 + static_cast<int>(
                                                    intensity * 100));
        workloads.insert(workloads.end(), set.begin(), set.end());
    }
    std::printf("workloads: %zu (equal thirds at 50/75/100%% intensity)\n\n",
                workloads.size());

    sim::AloneIpcCache cache(config, scale.warmup, scale.measure);
    sim::results::ResultsDoc doc("fig1", scale);
    std::printf("%-10s %18s %15s\n", "scheduler", "weighted speedup",
                "max slowdown");
    for (const auto &agg :
         sim::evaluateMatrix(config, workloads, sim::priorSchedulers(),
                             scale, cache, /*baseSeed=*/1)) {
        std::printf("%-10s %18.2f %15.2f\n", agg.scheduler.c_str(),
                    agg.weightedSpeedup.mean(), agg.maxSlowdown.mean());
        doc.set(agg.scheduler, "ws", agg.weightedSpeedup.mean());
        doc.set(agg.scheduler, "ms", agg.maxSlowdown.mean());
    }
    std::printf("\npaper (Fig. 1, 96 workloads): FR-FCFS worst WS; PAR-BS "
                "most fair;\nATLAS highest WS with ~55%% higher MS than "
                "PAR-BS.\n");
    bench::writeJsonIfRequested(doc, argc, argv);
    return 0;
}
