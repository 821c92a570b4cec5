/**
 * @file
 * Shared paper-experiment drivers: the exact experiment grids behind
 * bench_fig4 / bench_table4 / bench_table6, factored out so the benches
 * and tools/claims run the *same* code path — a claims gate that
 * re-derived its own grid could silently drift from what the bench
 * prints.
 *
 * Each driver returns a structured results document (sim/results.hpp);
 * benches render their tables from it, tools/claims evaluates the
 * claim registry against it and diffs it with the committed goldens.
 * All grids fan out through sim::runMatrix (sim::runCells), so results
 * are bit-identical at any --jobs level.
 */

#pragma once

#include "sim/results.hpp"
#include "sim/system_config.hpp"

namespace tcm::sim::paper {

/**
 * Figure 4 headline grid: the five paper schedulers over equal thirds
 * of 50/75/100%-intensity workloads (base seed 1). One row per
 * scheduler with metrics ws / ms / hs.
 */
results::ResultsDoc fig4(const SystemConfig &config,
                         const ExperimentScale &scale, int jobs = 0);

/**
 * Table 4 calibration: every synthetic benchmark clone run alone (seed
 * 99, probe on, 2x measure window). One row per clone with
 * target/measured/error triples for MPKI, RBL and BLP, plus a "worst"
 * summary row with the worst absolute errors.
 */
results::ResultsDoc table4(const SystemConfig &config,
                           const ExperimentScale &scale);

/**
 * Table 6 shuffling comparison: the four shuffling algorithms (plus
 * both insertion-shuffle readings) on the mixed-heterogeneity
 * population (seeds 6000/6500, base seed 13). One row per algorithm
 * with metrics ms_avg / ms_var.
 */
results::ResultsDoc table6(const SystemConfig &config,
                           const ExperimentScale &scale, int jobs = 0);

/**
 * Scheduler-zoo grid: the paper's headline baselines (FR-FCFS, ATLAS,
 * TCM) next to the championship ports (BLISS, GHT, FRFCFS-CP) and the
 * Tournament meta-scheduler, all on the exact fig4 workload population
 * (equal thirds of 50/75/100%-intensity workloads, base seed 1). One
 * row per scheduler (display names: "FR-FCFS", "ATLAS", "TCM", "BLISS",
 * "GHT", "FRFCFS-CP", "Tournament") with metrics ws / ms / hs — the
 * document behind bench_zoo and the zoo claims.
 */
results::ResultsDoc zoo(const SystemConfig &config,
                        const ExperimentScale &scale, int jobs = 0);

/**
 * Interval-sampling validation (the bench_sampling measurement): the
 * fig4 grid run twice — full-length and interval-sampled (W:K windows
 * after a short warmup; sim/sampling.hpp) — with the sampled estimates
 * compared against the full-run values. One row per scheduler with
 * <metric>_full / <metric>_sampled / <metric>_relerr for ws, ms and hs,
 * plus a "summary" row carrying the claim subjects:
 *   ws_err_max / ms_err_max / hs_err_max  worst relative error,
 *   ms_err_max_bounded  worst MS error over the bounded-slowdown
 *     schedulers (excludes the scheduler with the largest full-run MS —
 *     ATLAS at every blessed scale — whose divergent starvation
 *     statistic has no finite short-horizon estimate; the claim band
 *     gates this one),
 *   fig4_claims_total / fig4_claims_failed  the fig4.* registry
 *     re-evaluated on the sampled document (ordering preservation),
 *   cycle_ratio  simulated cycles full / sampled (deterministic),
 *   speedup / seconds_full / seconds_sampled  wall-clock.
 *
 * Sampling parameters come from @p scale.sampling when enabled, else
 * the SamplingConfig defaults (30k warmup + 3x14k windows). When
 * @p fullFig4 is non-null it is used as the full-run leg (it must be a
 * fig4 document produced at @p scale with its wall-clock provenance
 * stamped — the claims gate reuses the grid it already ran); when null
 * the driver runs the full leg itself.
 *
 * The document carries wall-clock timings: it feeds
 * the sampling.* claims and is written out for inspection but is never
 * diffed against a golden baseline.
 */
results::ResultsDoc sampling(const SystemConfig &config,
                             const ExperimentScale &scale, int jobs = 0,
                             const results::ResultsDoc *fullFig4 = nullptr);

} // namespace tcm::sim::paper
