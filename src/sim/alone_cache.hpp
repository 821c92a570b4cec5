/**
 * @file
 * Memoized alone-run IPC (the denominators of every paper metric),
 * with an optional disk-backed persistent store.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "sim/system_config.hpp"
#include "workload/profile.hpp"

namespace tcm::sim {

/**
 * Weighted speedup and maximum slowdown both divide by each thread's IPC
 * when running alone on the same system. That IPC depends only on the
 * thread's profile and the system configuration, so one cache instance
 * per configuration memoizes it across all workloads of an experiment —
 * the dominant cost saving that makes the 96-workload sweeps tractable.
 *
 * The alone run uses FR-FCFS (the scheduler is irrelevant without
 * contention) and a canonical trace seed; shared runs use per-instance
 * seeds, which changes addresses but not the stream's statistics.
 *
 * Concurrency: safe to call from many sweep workers at once. Entries
 * carry a per-key latch (std::once_flag), so two workers asking for the
 * same profile block on one alone simulation instead of both running it,
 * while different profiles simulate in parallel. prewarm() fills the
 * cache up front across a pool so the sweep proper starts read-only.
 *
 * Persistence (tools/sweepd): saveToFile()/loadFromFile() round-trip the
 * memo through a versioned text store so denominators are computed once
 * per *fleet*, not once per process. Every store is stamped with
 * fingerprint() — a hash of every behaviour-affecting SystemConfig field
 * plus the run horizon — and a load whose fingerprint does not match is
 * rejected wholesale (clean recompute beats silently wrong denominators).
 * Doubles are serialized in their shortest round-trip form
 * (common/numfmt), so a loaded entry is bit-equal to the computed one.
 */
class AloneIpcCache
{
  public:
    AloneIpcCache(const SystemConfig &config, Cycle warmup, Cycle measure);

    /** Alone IPC of @p profile, simulating on first use. */
    double aloneIpc(const workload::ThreadProfile &profile);

    /**
     * Simulate every distinct profile of @p workloads not yet cached,
     * fanned out across @p pool. Idempotent; after it returns, aloneIpc
     * for those profiles is a pure lookup.
     */
    void
    prewarm(const std::vector<std::vector<workload::ThreadProfile>> &workloads,
            ThreadPool &pool);

    /** Number of memoized entries (tests). */
    std::size_t size() const;

    // -- persistence ---------------------------------------------------------

    /**
     * Hash of everything an alone-run IPC depends on: the run horizon
     * (warmup/measure this cache was built with) and every
     * behaviour-affecting SystemConfig field. Deliberately excluded:
     * pure-observer knobs (telemetry, profiling, protocolCheck) and
     * bit-identity execution knobs (cycleSkip, controller idleSkip),
     * whose invariance is enforced by the cycle-skip and idle-skip test
     * suites.
     */
    std::uint64_t fingerprint() const;
    static std::uint64_t fingerprint(const SystemConfig &config,
                                     Cycle warmup, Cycle measure);

    /** Outcome of loadFromFile (also the unit-test surface). */
    struct LoadResult
    {
        /** The store was read and every entry adopted. */
        bool ok = false;
        /** Entries adopted (0 unless ok). */
        std::size_t loaded = 0;
        /** Human-readable reason when !ok ("no such file", "fingerprint
         *  mismatch", "truncated store", ...); empty on success. */
        std::string message;
    };

    /**
     * Adopt the entries of the store at @p path. Safe against every
     * broken-store shape: a missing file, an unknown version, a
     * fingerprint mismatch, a truncated or corrupted body all return
     * !ok with a diagnostic message and leave the cache exactly as it
     * was — the caller falls back to recomputing. Entries already in
     * memory win over the store (loads happen before any simulation in
     * practice). Loaded entries count as hits when used.
     */
    LoadResult loadFromFile(const std::string &path);

    /**
     * Write every memoized entry to @p path (versioned header,
     * fingerprint stamp, entry count trailer against truncation).
     * Atomic: writes "<path>.tmp" then renames, so a killed writer
     * never leaves a half-store behind. Throws std::runtime_error on
     * I/O failure.
     */
    void saveToFile(const std::string &path) const;

    // -- counters ------------------------------------------------------------

    /** aloneIpc() calls served without simulating (memo or store hit). */
    std::uint64_t hits() const { return lookups_.load() - misses_.load(); }
    /** aloneIpc() calls that had to run an alone simulation. */
    std::uint64_t misses() const { return misses_.load(); }
    /** Total aloneIpc() calls. */
    std::uint64_t lookups() const { return lookups_.load(); }

  private:
    /** Single source of truth for what distinguishes two alone runs —
     *  see workload::ThreadProfile::aloneBehaviorKey(). */
    using Key = workload::ThreadProfile::AloneBehaviorKey;

    struct Entry
    {
        std::once_flag once;
        double ipc = 0.0;
    };

    /** Find-or-create the entry for @p key (brief map-lock only). */
    Entry &entryFor(const Key &key);

    /** The actual alone simulation (runs outside the map lock). */
    double computeAloneIpc(const workload::ThreadProfile &profile) const;

    SystemConfig config_;
    Cycle warmup_;
    Cycle measure_;
    mutable std::mutex mutex_;    //!< guards cache_ structure only
    std::map<Key, Entry> cache_;  //!< node-stable: Entry& survives inserts
    std::atomic<std::uint64_t> lookups_{0};
    std::atomic<std::uint64_t> misses_{0};
};

} // namespace tcm::sim
