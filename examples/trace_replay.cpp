/**
 * @file
 * Example: capturing a trace to disk and replaying it.
 *
 * A user who has converted real program traces to the tcmsim format
 * drives the simulator exactly like this: build FileTrace sources, hand
 * them to the Simulator, and read the same metrics. Here we capture the
 * synthetic mcf and libquantum clones first so the example is
 * self-contained.
 */

#include <cstdio>
#include <memory>

#include "sim/simulator.hpp"
#include "workload/benchmark_table.hpp"
#include "workload/trace_file.hpp"

int
main()
{
    using namespace tcm;

    sim::SystemConfig config;
    config.numCores = 2;
    workload::Geometry geometry = config.geometry();

    // 1. Capture traces (normally done once, offline, via tools/tracegen)
    //    into the working directory.
    const char *mcfPath = "tcmsim_mcf.trace";
    const char *libqPath = "tcmsim_libq.trace";
    workload::captureSyntheticTrace(workload::benchmarkProfile("mcf"),
                                    geometry, 1, 200'000, mcfPath);
    workload::captureSyntheticTrace(
        workload::benchmarkProfile("libquantum"), geometry, 2, 200'000,
        libqPath);

    // 2. Replay them through the simulator under TCM.
    std::vector<std::unique_ptr<core::TraceSource>> traces;
    traces.push_back(std::make_unique<workload::FileTrace>(mcfPath,
                                                           geometry));
    traces.push_back(std::make_unique<workload::FileTrace>(libqPath,
                                                           geometry));
    std::printf("loaded %zu + %zu trace records\n",
                static_cast<const workload::FileTrace *>(traces[0].get())
                    ->size(),
                static_cast<const workload::FileTrace *>(traces[1].get())
                    ->size());

    sched::SchedulerSpec spec = sched::SchedulerSpec::tcmSpec();
    spec.scaleToRun(300'000);
    sim::Simulator sim(config, std::move(traces), spec, /*seed=*/3,
                       /*enableProbe=*/true);
    sim.run(50'000, 300'000);

    std::printf("%-12s %8s %8s %8s %8s\n", "trace", "IPC", "MPKI", "RBL",
                "BLP");
    const char *names[] = {"mcf", "libquantum"};
    for (ThreadId t = 0; t < 2; ++t) {
        auto b = sim.behavior(t);
        std::printf("%-12s %8.3f %8.2f %8.3f %8.2f\n", names[t], b.ipc,
                    b.mpki, b.rbl, b.blp);
    }
    std::printf("\ntraces replay deterministically: run this example "
                "twice and diff the output.\n");
    return 0;
}
