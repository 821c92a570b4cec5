/**
 * @file
 * Ablations of the substrate design choices DESIGN.md section 5 calls
 * out — not paper experiments, but evidence for why the substrate is
 * configured the way it is:
 *
 *   1. row-hit-first (FR-FCFS vs pure FCFS): the value of open-row
 *      scheduling the whole paper builds on;
 *   2. refresh modelling on/off: its throughput cost;
 *   3. write-drain watermarks: batching writes vs interleaving them;
 *   4. ATLAS aging threshold: the starvation valve that separates
 *      "strict ranking" from "strict ranking with a safety net".
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "sim/experiment.hpp"
#include "workload/mixes.hpp"

namespace {

using namespace tcm;

sim::AggregateResult
evalConfig(const sim::SystemConfig &config, const sched::SchedulerSpec &spec,
           const sim::ExperimentScale &scale, std::uint64_t seed)
{
    auto workloads = workload::workloadSet(scale.workloadsPerCategory,
                                           config.numCores, 0.5, 9900);
    sim::AloneIpcCache cache(config, scale.warmup, scale.measure);
    return sim::evaluateMatrix(config, workloads, {spec}, scale, cache, seed)
        .front();
}

void
row(sim::results::ResultsDoc &doc, const char *series, const char *label,
    const sim::AggregateResult &r)
{
    std::printf("%-34s WS=%6.2f  MS=%6.2f\n", label,
                r.weightedSpeedup.mean(), r.maxSlowdown.mean());
    doc.setAt(series, label, "ws", r.weightedSpeedup.mean());
    doc.setAt(series, label, "ms", r.maxSlowdown.mean());
}

/** Blocks that compare specs under ONE config share a cache and run as
 *  one parallel matrix; config-varying blocks use evalConfig per row. */
void
rows(sim::results::ResultsDoc &doc, const char *series,
     const sim::SystemConfig &config,
     const std::vector<std::pair<const char *, sched::SchedulerSpec>> &specs,
     const sim::ExperimentScale &scale, std::uint64_t seed)
{
    auto workloads = workload::workloadSet(scale.workloadsPerCategory,
                                           config.numCores, 0.5, 9900);
    sim::AloneIpcCache cache(config, scale.warmup, scale.measure);
    std::vector<sched::SchedulerSpec> list;
    for (const auto &[label, spec] : specs)
        list.push_back(spec);
    auto aggs =
        sim::evaluateMatrix(config, workloads, list, scale, cache, seed);
    for (std::size_t i = 0; i < specs.size(); ++i)
        row(doc, series, specs[i].first, aggs[i]);
}

} // namespace

int
main(int argc, char **argv)
{
    sim::ExperimentScale scale = sim::ExperimentScale::fromEnv();
    bench::printHeader("Substrate ablations (50%-intensity workloads)",
                       scale);
    sim::results::ResultsDoc doc("ablations", scale);

    {
        std::printf("-- row-hit-first scheduling --\n");
        sim::SystemConfig config;
        rows(doc, "row-hit-first", config,
             {{"FR-FCFS (row-hit first)", sched::SchedulerSpec::frfcfs()},
              {"FCFS (arrival order only)", sched::SchedulerSpec::fcfs()}},
             scale, 1);
    }

    {
        std::printf("\n-- refresh modelling --\n");
        sim::SystemConfig config;
        row(doc, "refresh", "refresh on (tREFI/tRFC)",
            evalConfig(config, sched::SchedulerSpec::tcmSpec(), scale, 2));
        config.timing.refreshEnabled = false;
        row(doc, "refresh", "refresh off",
            evalConfig(config, sched::SchedulerSpec::tcmSpec(), scale, 2));
    }

    {
        std::printf("\n-- write-drain high watermark (cap 64) --\n");
        for (int hi : {16, 48, 62}) {
            sim::SystemConfig config;
            config.controller.writeDrain.highWatermark = hi;
            config.controller.writeDrain.lowWatermark = hi / 3;
            char label[48];
            std::snprintf(label, sizeof(label), "drain at %d", hi);
            row(doc, "write-drain", label,
                evalConfig(config, sched::SchedulerSpec::tcmSpec(), scale,
                           3));
        }
    }

    {
        std::printf("\n-- page policy (TCM) --\n");
        sim::SystemConfig config;
        row(doc, "page-policy", "open page (baseline)",
            evalConfig(config, sched::SchedulerSpec::tcmSpec(), scale, 8));
        config.controller.pagePolicy = mem::PagePolicy::Closed;
        row(doc, "page-policy", "smart closed page",
            evalConfig(config, sched::SchedulerSpec::tcmSpec(), scale, 8));
    }

    {
        std::printf("\n-- DRAM generation (TCM) --\n");
        sim::SystemConfig config;
        row(doc, "dram-generation", "DDR2-800 (Table 3)",
            evalConfig(config, sched::SchedulerSpec::tcmSpec(), scale, 9));
        config.timing = dram::TimingParams::ddr3_1333();
        row(doc, "dram-generation", "DDR3-1333",
            evalConfig(config, sched::SchedulerSpec::tcmSpec(), scale, 9));
    }

    {
        std::printf("\n-- rank organization, 8 banks/channel (TCM) --\n");
        sim::SystemConfig config;
        config.timing.banksPerChannel = 8;
        config.timing.ranksPerChannel = 1;
        row(doc, "rank-organization", "1 rank x 8 banks",
            evalConfig(config, sched::SchedulerSpec::tcmSpec(), scale, 10));
        config.timing.ranksPerChannel = 2;
        row(doc, "rank-organization", "2 ranks x 4 banks",
            evalConfig(config, sched::SchedulerSpec::tcmSpec(), scale, 10));
    }

    {
        std::printf("\n-- extra baseline: fair queueing (FQM) --\n");
        sim::SystemConfig config;
        rows(doc, "fqm", config,
             {{"FQM (bandwidth fairness)", sched::SchedulerSpec::fqmSpec()},
              {"TCM", sched::SchedulerSpec::tcmSpec()}},
             scale, 5);
    }

    {
        std::printf("\n-- ATLAS aging threshold (starvation valve) --\n");
        sim::SystemConfig config;
        std::vector<std::pair<const char *, sched::SchedulerSpec>> points;
        std::vector<std::string> labels;
        labels.reserve(3); // c_str() pointers below must stay valid
        for (Cycle aging : {Cycle{25'000}, Cycle{100'000}, kCycleNever}) {
            sched::SchedulerSpec spec = sched::SchedulerSpec::atlasSpec();
            spec.atlas.agingThreshold = aging;
            char label[48];
            if (aging == kCycleNever)
                std::snprintf(label, sizeof(label), "ATLAS aging=never");
            else
                std::snprintf(label, sizeof(label), "ATLAS aging=%lluK",
                              static_cast<unsigned long long>(aging / 1000));
            labels.emplace_back(label);
            points.push_back({labels.back().c_str(), spec});
        }
        rows(doc, "atlas-aging", config, points, scale, 4);
    }

    std::printf(
        "\nreadings:\n"
        " * FCFS ~ FR-FCFS here: a *work-conserving command-level* engine\n"
        "   already exploits open rows structurally (a conflict's PRE is\n"
        "   blocked by tRAS while row hits remain issuable), so the\n"
        "   explicit row-hit tier matters mainly for priority ties.\n"
        " * refresh costs a few percent of throughput, as expected.\n"
        " * later write drains batch better (higher WS).\n"
        " * smart-closed paging is WS-neutral under these mixes but\n"
        "   costs fairness (reactivations hit locality-poor threads).\n"
        " * DDR3-1333 (8 banks, faster burst) lifts WS and fairness:\n"
        "   more banks = less inter-thread bank contention.\n"
        " * splitting 8 banks across 2 ranks costs a little bandwidth\n"
        "   (tRTRS turnarounds) for the same contention behaviour.\n"
        " * FQM equalizes *bandwidth*, not *slowdown*: high WS, but the\n"
        "   threads that need more service for equal progress suffer.\n"
        " * ATLAS's unfairness is a bandwidth-share problem, not a\n"
        "   request-age problem: tightening the aging valve bounds each\n"
        "   request's wait but barely moves maximum slowdown.\n");
    bench::writeJsonIfRequested(doc, argc, argv);
    return 0;
}
