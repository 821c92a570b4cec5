/**
 * @file
 * Manifest jobs: the one way the tools turn a grid of (scheduler,
 * workload) runs into results, and the resumable runner behind sweepd.
 *
 *  - A *manifest* is a plain-text list of (scheduler, protocol,
 *    intensity, mix-index, seed) jobs plus the shared system/scale knobs.
 *    tools/sweep builds one in memory from its flags; sweepd reads one
 *    from a file.
 *  - runJobs() runs a range of jobs as sim::runCells cells named after
 *    their stream points and returns their results in job order.
 *  - Server::runManifest streams one compact ResultsDoc JSONL record per
 *    job (results::ResultsDoc::toJsonLine) **in manifest order**, batch
 *    by batch, so a consumer can tail the file.
 *  - Alone-IPC denominators live in persistent per-configuration stores
 *    (AloneIpcCache::saveToFile, keyed by fingerprint), loaded at
 *    startup and appended after every batch — computed once per fleet,
 *    not once per process.
 *  - After every batch the server writes an atomic checkpoint binding
 *    (manifest hash, jobs emitted, output byte offset). A killed run
 *    restarted on the same state truncates the stream to the last
 *    checkpoint and re-runs from there; because every record is
 *    deterministic, the final file is byte-identical to an uninterrupted
 *    run (tests/test_sweepd.cpp asserts this literally).
 *
 * Nothing wall-clock-dependent ever enters the stream: throughput
 * (jobs/sec) and cache hit rate go to a separate summary document's
 * run-provenance block, which results diffs never compare.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "sched/factory.hpp"
#include "sim/experiment.hpp"

namespace tcm::sim::sweepd {

/** One unit of work: a single (workload, scheduler) simulation. */
struct JobSpec
{
    std::string scheduler; //!< sched::specByName registry name
    std::string protocol;  //!< DRAM protocol preset ("ddr2-800", ...)
    double intensity = 0.5; //!< memory-intensive thread fraction [0,1]
    int mixIndex = 0;       //!< which random mix of the intensity family
    std::uint64_t seed = 1; //!< per-run trace seed
};

/**
 * A parsed job manifest. Text format ("#" comments and blank lines
 * ignored, fields space-separated):
 *
 *   tcmsim-manifest v1
 *   cores 8                  # optional, default 24
 *   channels 2               # optional, default 4
 *   warmup 20000             # optional, default 50000
 *   cycles 100000            # optional, default 300000
 *   sample 5000:4:10000      # optional W:K[:WARMUP]; default off
 *   workload-seed 7          # optional, default 1
 *   job tcm ddr2-800 0.5 0 1
 *   job frfcfs ddr3-1333 1 3 42
 *
 * Workload identity is positional, not manifest-positional: job
 * (intensity, mixIndex) always denotes randomMix(cores, intensity,
 * workloadSeed + intensity*1000 + 1000003*(mixIndex+1)), computed in
 * std::uint64_t — the exact workloadSet seeding of the batch drivers —
 * so two manifests that name the same job produce the same record
 * regardless of what else they contain.
 */
struct Manifest
{
    int cores = 24;
    int channels = 4;
    Cycle warmup = 50'000;
    Cycle measure = 300'000;
    SamplingConfig sampling; //!< off unless a `sample` line enables it
    std::uint64_t workloadSeed = 1;
    std::vector<JobSpec> jobs;

    /** FNV-1a of the manifest text this was parsed from (binds
     *  checkpoints to their manifest). */
    std::uint64_t textHash = 0;

    /** ExperimentScale equivalent of the manifest's knobs. */
    ExperimentScale scale() const;

    /**
     * Parse @p text. Scheduler and protocol names are validated against
     * their registries at parse time, so a bad manifest is rejected
     * whole instead of failing mid-stream. Returns false and sets
     * @p error (line-numbered) on any problem.
     */
    static bool parse(const std::string &text, Manifest *out,
                      std::string *error);
};

/** One alone-IPC cache per protocol a manifest names, keyed by name. */
using AloneCaches = std::map<std::string, std::unique_ptr<AloneIpcCache>>;

/**
 * Empty alone-IPC caches for every protocol of @p m's jobs, each for the
 * config those jobs run under: @p base with the manifest's cores and
 * channels and that protocol, over the manifest's horizon.
 */
AloneCaches makeCaches(const Manifest &m, const SystemConfig &base);

/**
 * Run jobs [@p first, @p first + @p count) of @p m on @p pool through
 * sim::runCells and return their results in job order. Each job runs
 * @p base with the manifest's cores and channels and the job's protocol,
 * on the mix the manifest contract gives its (intensity, mix index),
 * with the job's seed, against its protocol's cache in @p caches (from
 * makeCaches), as a cell named after its stream point
 * ("ddr2-800_i0.5_w0_s1_TCM_seed1"), profiled as sim::requestedProfile
 * resolves @p base (so TCMSIM_PROFILE=DIR leaves one file per job).
 * Throws what a run or a file write throws.
 */
std::vector<RunResult>
runJobs(const Manifest &m, const SystemConfig &base, AloneCaches &caches,
        std::size_t first, std::size_t count, ThreadPool &pool);

/** Outcome of one Server::runManifest call. */
struct RunOutcome
{
    bool ok = false;       //!< manifest valid and all I/O succeeded
    bool finished = false; //!< every job emitted (false when stopped)
    bool resumed = false;  //!< picked up from a prior checkpoint
    std::uint64_t emitted = 0;            //!< stream total, all sessions
    std::uint64_t emittedThisSession = 0; //!< jobs run by this call
    std::uint64_t cacheHits = 0;   //!< alone-IPC lookups served memoized
    std::uint64_t cacheMisses = 0; //!< alone-IPC lookups that simulated
    double wallSeconds = 0.0;
    double jobsPerSec = 0.0; //!< emittedThisSession / wallSeconds
    std::string error;       //!< non-empty iff !ok
};

/**
 * The resumable manifest runner. One instance owns a state directory
 * holding the persistent alone-IPC stores ("alone-<fingerprint>.cache");
 * each output stream gets a checkpoint ("<output>.ckpt") and a summary
 * document ("<output>.summary.json") next to it.
 */
class Server
{
  public:
    struct Options
    {
        std::string stateDir; //!< required; created if missing
        int jobs = 0;         //!< worker threads; <=0 = defaultJobs()
        /** Jobs per dispatch batch (also the checkpoint granularity);
         *  <= 0 picks 4x the worker count. */
        int batch = 0;
        /**
         * Stop cleanly — checkpointed, caches saved — once this many
         * jobs have been emitted in this session (0 = no limit). The
         * test hook behind the kill/resume contract: a --stop-after
         * run is indistinguishable from a run killed between
         * batches.
         */
        std::uint64_t stopAfter = 0;
        /** Progress/diagnostic sink; null = silent. */
        std::function<void(const std::string &)> log;
    };

    explicit Server(Options options);

    /**
     * Run the manifest at @p manifestPath, streaming one JSONL record
     * per job to @p outPath (resuming from the checkpoint when one
     * matches), then write the throughput summary next to it. Never
     * throws; failures come back in RunOutcome::error. A malformed
     * TCMSIM_JOBS (read when Options::jobs <= 0) exits 2 before
     * @p outPath is touched.
     */
    RunOutcome runManifest(const std::string &manifestPath,
                           const std::string &outPath);

  private:
    Options options_;
};

} // namespace tcm::sim::sweepd
