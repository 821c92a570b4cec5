/**
 * @file
 * Interval-sampled simulation runs: warmup plus K short measurement
 * windows standing in for the full measurement window.
 *
 * The synthetic workloads are statistically stationary, so a run's
 * full-window IPC is well estimated from a much shorter span — the
 * simulation-interval representativeness result (arXiv 2402.00649)
 * applied to this simulator. A sampled run executes
 * `warmup + windows * window` cycles instead of the full
 * `warmup + measure`, cutting per-job cost by the cycle ratio (>= 4x at
 * the blessed scales), while the per-window IPC readings give every run
 * a self-assessed confidence figure (relative standard error across
 * windows, RunResult::ipcRse).
 *
 * Contract (enforced by tests/test_sampling and the sampling.* claims):
 *   - Scheduler time constants still scale to the FULL run length
 *     (SchedulerSpec::scaleToRun(measure)), so a sampled run is a
 *     prefix-slice of the full run's dynamics, not a compressed rerun.
 *   - Alone-IPC denominators are sampled with the same configuration
 *     (AloneIpcCache built from the effective warmup/measure), so
 *     WS/MS are ratios of two same-horizon estimates.
 *   - Window-chunked stepping is bit-identical to one contiguous run of
 *     the same length (the cycle-skip kernel's clamp contract), so
 *     sampling changes *how long* we simulate, never *what* we simulate.
 *   - Validation is against full-run values: paper::sampling() runs the
 *     fig4 grid both ways and gates the worst WS/MS error band, the
 *     preserved scheduler ordering (the fig4 claims re-evaluated on
 *     sampled numbers), and the wall-clock speedup.
 */

#pragma once

#include <string>

#include "common/types.hpp"

namespace tcm::sim {

struct SamplingConfig
{
    bool enabled = false;

    /** Sampled-run warmup, replacing the full run's warmup. The
     *  default is deliberately warmup-heavy: history-driven
     *  schedulers (ATLAS's attained-service ranking, TCM's cluster
     *  assignment) need a quantum or so of unmeasured run-in before
     *  a short measured span represents their steady state — the
     *  fig4 orderings only survive sampling with it. */
    Cycle warmup = 30'000;

    /** Cycles per measurement window (W). */
    Cycle window = 14'000;

    /** Number of measurement windows (K). */
    int windows = 3;

    /** Total measured cycles of a sampled run (K * W). */
    Cycle totalMeasure() const
    {
        return window * static_cast<Cycle>(windows);
    }

    /**
     * Parse a "W:K" or "W:K:WARMUP" spec (tools/sweep --sample,
     * sweepd manifests). Returns a config with enabled=true, or sets
     * @p error and returns a disabled config on a malformed spec: a
     * field that is not one unsigned decimal (numfmt's parseU64), W <
     * 1000, K outside [1, 10^6], or WARMUP + W*K past kCycleNever.
     */
    static SamplingConfig parse(const std::string &spec, std::string *error);

    /** Canonical "W:K:WARMUP" rendering (fingerprints, log lines). */
    std::string describe() const;
};

} // namespace tcm::sim
