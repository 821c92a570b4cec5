/**
 * @file
 * Structured bench results: the self-describing JSON document every
 * reproduction bench (and tools/claims) emits, so the paper's numbers
 * are machine-checkable instead of eyeballable free text.
 *
 * A document is a flat table: rows keyed by (series, point) — series is
 * "which line of the figure" (a scheduler, a benchmark clone, a config
 * label), point the position along it ("" for single-point rows, "i25"
 * for Figure 7's 25%-intensity column) — each carrying an ordered list
 * of named scalar metrics. Serialization is schema-versioned, keys are
 * emitted in insertion order, and all numbers go through
 * common/numfmt's shortest round-trip form, so two runs that computed
 * the same doubles produce byte-identical files on any platform.
 */

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hpp"

namespace tcm::sim::results {

/** Bump when the document layout changes shape (not when benches add
 *  metrics: readers must tolerate new rows/keys). */
inline constexpr int kSchemaVersion = 1;

/** One (series, point) row: ordered metric name/value pairs. */
struct Row
{
    std::string series;
    std::string point;
    std::vector<std::pair<std::string, double>> metrics;

    /** Overwrite @p metric or append it, preserving insertion order. */
    void set(const std::string &metric, double value);

    /** Value of @p metric, or nullptr. */
    const double *find(const std::string &metric) const;
};

struct ResultsDoc
{
    int schemaVersion = kSchemaVersion;
    std::string bench; // "fig4", "table6", ...
    Cycle warmup = 0;
    Cycle measure = 0;
    int workloadsPerCategory = 0;

    // Run provenance, stamped by the producing harness: how long the
    // experiment took, the host and build that produced the document,
    // and — when the run was profiled — the merged self-profile metrics
    // (prof::ProfileReport::provenance(), fixed key order). All of it is
    // descriptive metadata, not results: claims never reference it and
    // the baseline diff ignores the whole "run" block (tools/claims
    // compares bench, scale, and rows only), so a doc regenerated on
    // different hardware, at a different job count, or with profiling
    // toggled still matches its golden. Serialized only when any field
    // is set — the one deliberate exception to byte-identical re-runs —
    // with a schema-stable key order (wall_seconds, host_threads,
    // build_type, cycle_skip, jobs_per_sec, cache_hit_rate, profile),
    // and parsed tolerantly: unknown keys (such as the retired
    // intra_workers) are skipped, so documents written before or after
    // a field existed load unchanged.
    double wallSeconds = 0.0;
    int hostThreads = 0;          //!< std::thread::hardware_concurrency
    std::string buildType;        //!< CMAKE_BUILD_TYPE of the producer
    int cycleSkip = -1;           //!< -1 unset, else 0/1 (SystemConfig)
    /** Daemon throughput (tools/sweepd summary docs): completed jobs per
     *  wall second; <= 0 means "not a daemon doc". */
    double jobsPerSec = 0.0;
    /** Alone-IPC cache hit rate of the producing run, in [0,1];
     *  -1 means unrecorded. */
    double cacheHitRate = -1.0;
    /** Flat profiler metrics; empty when the run was not profiled. */
    std::vector<std::pair<std::string, double>> profileMetrics;

    std::vector<Row> rows;

    ResultsDoc() = default;
    ResultsDoc(std::string benchName, const ExperimentScale &scale);

    /** Row (@p series, @p point), appended when missing. */
    Row &row(const std::string &series, const std::string &point = "");

    /** Shorthand for row(series).set(metric, value). */
    void set(const std::string &series, const std::string &metric,
             double value);
    /** Shorthand for row(series, point).set(metric, value). */
    void setAt(const std::string &series, const std::string &point,
               const std::string &metric, double value);

    /** Value lookup, nullptr when the row or metric is absent. */
    const double *find(const std::string &series, const std::string &point,
                       const std::string &metric) const;

    /** Deterministic pretty-printed JSON (ends with a newline). */
    std::string toJson() const;

    /**
     * The same document as a single compact JSONL record (one line, no
     * interior newlines, terminating "\n"). Field-for-field identical
     * content to toJson() — fromJson() parses either — just formatted
     * for append-only streams (tools/sweepd's results feed, where one
     * record per completed job lets a consumer tail the file).
     */
    std::string toJsonLine() const;

    /** toJson() to @p path; throws std::runtime_error on I/O failure. */
    void save(const std::string &path) const;

    /** Parse a document; throws std::runtime_error on malformed input
     *  or an unsupported schema_version. */
    static ResultsDoc fromJson(const std::string &text);

    /** fromJson() over the contents of @p path; throws on I/O failure. */
    static ResultsDoc load(const std::string &path);
};

} // namespace tcm::sim::results
