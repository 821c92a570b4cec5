/**
 * @file
 * Simulator self-profiling: wall-clock phase timers, cycle-skip horizon
 * attribution, regime occupancy and scan efficiency.
 *
 * The profiler is a detachable observer of the *simulator*, not of the
 * simulated system: it may read the wall clock, but nothing it measures
 * may feed back into simulated state, so results are bit-identical with
 * the profiler attached or detached (enforced by tests/test_prof). When
 * detached every instrumentation site reduces to a null-pointer check —
 * no clock reads, no allocation.
 *
 * Threading contract: a Profiler observes one simulation and is written
 * only by the thread stepping it.
 */

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "stats/histogram.hpp"

namespace tcm::prof {

/** Wall-clock phases of one simulation step. ReadScan nests inside
 *  CtrlTick; everything else is disjoint. */
enum class Phase : int {
    SchedTick = 0, //!< scheduler policy tick + hook dispatch
    CtrlTick,      //!< memory-controller tick (admit/refresh/issue)
    ReadScan,      //!< SoA read-queue scan (subset of CtrlTick)
    CoreTick,      //!< core lockstep ticks + silent fast-forwarding
    Telemetry,     //!< interval sampling into the telemetry sink
    Serialize,     //!< end-of-run telemetry/profile file writes
};

inline constexpr int kPhaseCount = 6;

/** Stable short name ("sched.tick", ...) for reports. */
const char *phaseName(Phase p);

/** Stable identifier-safe key ("sched_tick", ...) for JSON. */
const char *phaseKey(Phase p);

/** Which subsystem's horizon bounded a cycle-skip jump. */
enum class HorizonSource : int {
    Scheduler = 0, //!< SchedulerPolicy::nextEventAt
    Controller,    //!< MemoryController::nextEventAt
    Telemetry,     //!< telemetry interval sample clock
    Core,          //!< core regime end
    End,           //!< requested end of the step() window
};

inline constexpr int kHorizonSourceCount = 5;

const char *horizonSourceName(HorizonSource s);

/** Core execution regime for one simulated cycle. */
enum class Regime : int {
    Dormant = 0, //!< full window stalled on a memory miss
    Streaming,   //!< closed-form plain-instruction advance
    Lockstep,    //!< full per-cycle core tick
};

inline constexpr int kRegimeCount = 3;

/** Phase accumulator: fixed arrays, zero allocation. */
struct PhaseShard {
    std::array<std::uint64_t, kPhaseCount> ns{};
    std::array<std::uint64_t, kPhaseCount> calls{};
};

/** RAII phase timer. A null shard skips the clock entirely, so the
 *  detached cost is two predictable branches. */
class ScopedPhase
{
  public:
    ScopedPhase(PhaseShard *shard, Phase phase) : shard_(shard), phase_(phase)
    {
        if (shard_ != nullptr)
            t0_ = std::chrono::steady_clock::now();
    }

    ~ScopedPhase()
    {
        if (shard_ == nullptr)
            return;
        auto dt = std::chrono::steady_clock::now() - t0_;
        shard_->ns[static_cast<int>(phase_)] += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
        ++shard_->calls[static_cast<int>(phase_)];
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    PhaseShard *shard_;
    Phase phase_;
    std::chrono::steady_clock::time_point t0_{};
};

/** Read-scan efficiency counters (see mem::MemoryController::tryIssue). */
struct ScanCounters {
    std::uint64_t soaScans = 0;         //!< SoA scans executed
    std::uint64_t readsExamined = 0;    //!< candidate reads visited
    std::uint64_t dominanceSkipped = 0; //!< rejected by packed-key compare
    std::uint64_t fallbackScans = 0;    //!< always 0: every rank fits the key

    void
    addFrom(const ScanCounters &other)
    {
        soaScans += other.soaScans;
        readsExamined += other.readsExamined;
        dominanceSkipped += other.dominanceSkipped;
        fallbackScans += other.fallbackScans;
    }
};

/** Per-controller shard: written by that channel's controller, folded
 *  into the end-of-run report by Profiler::report. */
struct ControllerShard {
    PhaseShard phases;
    ScanCounters scan;
};

/** How profiling is requested. */
struct ProfileConfig {
    bool enabled = false;
    /** When non-empty: write one <prefix><name>_seed<N>.profile.json per
     *  run into this directory. */
    std::string dir;
    std::string filePrefix;

    /**
     * TCMSIM_PROFILE environment knob: unset or "0" = off, "1" = on
     * (report only), any other value = on with that output directory.
     * Consulted by sim::requestedProfile when SystemConfig::profile is
     * off, so every bench and tool inherits profiling without new flags.
     */
    static ProfileConfig fromEnv();
};

/** Bucket ladder for skip/span lengths in cycles (1, 2, 4, ... ~1M). */
stats::Histogram skipLengthLadder();

/**
 * End-of-run profile: a mergeable value type. merge() folds another
 * run's report in (the per-core vector resizes to the larger run), so
 * sweeps can aggregate per scheduler across workloads.
 */
struct ProfileReport {
    bool enabled = false;
    int runs = 0;

    std::array<std::uint64_t, kPhaseCount> phaseNs{};
    std::array<std::uint64_t, kPhaseCount> phaseCalls{};

    std::array<std::uint64_t, kHorizonSourceCount> skipCount{};
    std::array<std::uint64_t, kHorizonSourceCount> skipCycles{};
    stats::Histogram skipLengths = skipLengthLadder();

    std::vector<std::array<std::uint64_t, kRegimeCount>> coreRegimes;
    ScanCounters scan;

    std::uint64_t totalSkips() const;
    std::uint64_t totalSkippedCycles() const;
    std::uint64_t regimeTotal(Regime r) const;
    double phaseMs(Phase p) const;

    void merge(const ProfileReport &other);

    /** Flat (key, value) metrics for the ResultsDoc run-provenance
     *  block: fixed key order, never baseline-diffed. */
    std::vector<std::pair<std::string, double>> provenance() const;

    /** Self-describing JSON document (tcmsim-profile-v1). */
    std::string toJson() const;

    /** Human-readable rendering (SystemReport section). */
    void print(std::FILE *out) const;
};

/**
 * Live collector owned by whoever attached it (runWorkload, a tool, a
 * test). configure() is called by Simulator::attach with the
 * run's geometry; all vectors are sized there once, so the hot-path
 * pointers handed to the controllers stay stable.
 */
class Profiler
{
  public:
    Profiler() = default;

    void configure(int numCores, int numChannels);

    PhaseShard &main() { return main_; }
    ControllerShard *controllerShard(int channel)
    {
        return &controllers_[static_cast<std::size_t>(channel)];
    }

    void
    recordSkip(HorizonSource src, std::uint64_t cycles)
    {
        ++skipCount_[static_cast<int>(src)];
        skipCycles_[static_cast<int>(src)] += cycles;
        skipLengths_.add(static_cast<double>(cycles));
    }

    void
    addRegime(std::size_t core, Regime r, std::uint64_t cycles)
    {
        coreRegimes_[core][static_cast<int>(r)] += cycles;
    }

    /** Cheap cumulative snapshot for the telemetry "simulator" lane. */
    struct Pulse {
        double wallMs = 0.0;
        std::uint64_t skips = 0;
        std::uint64_t skippedCycles = 0;
    };
    Pulse pulse() const;

    /** Fold every shard into a mergeable end-of-run report. */
    ProfileReport report() const;

  private:
    PhaseShard main_;
    std::vector<ControllerShard> controllers_;
    std::array<std::uint64_t, kHorizonSourceCount> skipCount_{};
    std::array<std::uint64_t, kHorizonSourceCount> skipCycles_{};
    stats::Histogram skipLengths_ = skipLengthLadder();
    std::vector<std::array<std::uint64_t, kRegimeCount>> coreRegimes_;
};

} // namespace tcm::prof
