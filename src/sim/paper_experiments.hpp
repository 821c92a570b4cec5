/**
 * @file
 * The reproduction's tables and figures: one driver per paper figure or
 * table (plus the scheduler zoo, the substrate ablations and the two
 * simulator probes), each returning a structured results document
 * (sim/results.hpp), and one registry of them that tools/paper renders
 * and tools/claims gates on — a gate that re-derived its own grid could
 * silently drift from what `paper` prints.
 *
 * Every grid runs its independent simulations in one sim::runCells
 * call, so results are bit-identical at any job count. The drivers fold
 * their runs' self-profiles (TCMSIM_PROFILE) and their wall time into
 * the document's run block, which no baseline diff reads.
 */

#pragma once

#include <optional>
#include <string>
#include <vector>

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
 * "GHT", "FRFCFS-CP", "Tournament") with metrics ws / ms / hs.
 */
results::ResultsDoc zoo(const SystemConfig &config,
                        const ExperimentScale &scale, int jobs = 0);

/**
 * Interval-sampling validation: the fig4 grid run twice — full-length
 * and interval-sampled (W:K windows after a short warmup;
 * sim/sampling.hpp) — with the sampled estimates compared against the
 * full-run values. One row per scheduler with <metric>_full /
 * <metric>_sampled / <metric>_relerr for ws, ms and hs, plus a
 * "summary" row carrying the claim subjects:
 *   ws_err_max / ms_err_max / hs_err_max  worst relative error,
 *   ms_err_max_bounded  worst MS error over the bounded-slowdown
 *     schedulers (excludes the scheduler with the largest full-run MS —
 *     ATLAS at every blessed scale — whose divergent starvation
 *     statistic has no finite short-horizon estimate; the claim band
 *     gates this one),
 *   fig4_claims_total / fig4_claims_failed  the fig4.* registry
 *     re-evaluated on the sampled document (ordering preservation),
 *   cycle_ratio  simulated cycles full / sampled (deterministic),
 *   speedup / seconds_full / seconds_sampled  wall-clock, reported
 *     only.
 *
 * Sampling parameters come from @p scale.sampling when enabled, else
 * the SamplingConfig defaults (30k warmup + 3x14k windows). When
 * @p fullFig4 is non-null it is used as the full-run leg (it must be a
 * fig4 document produced at @p scale with its wall-clock provenance
 * stamped — the claims gate reuses the grid it already ran); when null
 * the driver runs the full leg itself.
 *
 * The document carries wall-clock timings, so it feeds the sampling.*
 * claims and is written out for inspection but is never diffed against
 * a golden baseline.
 */
results::ResultsDoc sampling(const SystemConfig &config,
                             const ExperimentScale &scale, int jobs = 0,
                             const results::ResultsDoc *fullFig4 = nullptr);

/**
 * One paper-vs-measured reading of a figure, in the claims' flat-key
 * form (sim/claims.hpp, "<bench>/<series>[@<point>]/<metric>"). With a
 * reference key the reading is the subject's change relative to the
 * reference, in percent; without one it is the subject's value.
 */
struct Comparison
{
    std::string label;     //!< one line's name, e.g. "TCM vs ATLAS, WS"
    std::string subject;   //!< flat key of the measured value
    std::string reference; //!< flat key to compare against, or ""
    /** The paper's reading in the same unit; none for a comparison the
     *  paper does not make (the zoo's policies, Table 8's rows). */
    std::optional<double> paper;
};

/** One table or figure of the reproduction. */
struct Figure
{
    /** The `paper` argument, the document's bench name and the stem of
     *  its BENCH_<name>.json file. */
    std::string name;
    std::string title;
    /** The paper's reading (or, for the non-paper entries, the
     *  substrate's), printed under the table. */
    std::string reading;
    std::vector<Comparison> comparisons;
    /** The driver: the document at @p scale on the base @p config, run
     *  on @p jobs workers (<= 0: ThreadPool::defaultJobs). Throws what a
     *  run throws; cycleskip also throws when the kernels diverge. */
    results::ResultsDoc (*run)(const SystemConfig &config,
                               const ExperimentScale &scale, int jobs);
};

/** Every table and figure, in the paper's order, then the zoo, the
 *  ablations and the cycleskip and sampling probes. */
const std::vector<Figure> &figures();

} // namespace tcm::sim::paper
