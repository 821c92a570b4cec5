/**
 * @file
 * Cycle-level memory controller for one DRAM channel.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "dram/channel.hpp"
#include "dram/timing.hpp"
#include "mem/latency_tracker.hpp"
#include "mem/request.hpp"
#include "mem/request_queue.hpp"
#include "mem/sched_iface.hpp"

namespace tcm::telemetry {
class TelemetrySink;
}

namespace tcm::prof {
class Profiler;
}

namespace tcm::sched {
class ThreadBankMonitor;
}

namespace tcm::mem {

/**
 * Row-buffer management policy. OpenPage (the baseline, and what all the
 * paper's schedulers assume) leaves rows open for future hits;
 * ClosedPage auto-precharges after a column command unless another
 * queued request targets the same row (the standard "smart closed"
 * refinement).
 */
enum class PagePolicy
{
    Open,
    Closed,
};

/**
 * Watermark-latched write-drain policy (USIMM HI_WM/LO_WM). While a drain
 * is latched, writes go first and reads take any slot no write can use.
 */
struct WriteDrainPolicy
{
    int highWatermark = 48; //!< start draining at this occupancy
    int lowWatermark = 16;  //!< stop draining at this occupancy
};

/** Controller configuration (Table 3 defaults). */
struct ControllerParams
{
    PagePolicy pagePolicy = PagePolicy::Open;

    int readQueueCap = 128;  //!< request buffer entries
    int writeQueueCap = 64;  //!< write data buffer entries
    WriteDrainPolicy writeDrain; //!< watermark-latched write drain

    /**
     * Skip scheduling scans until a command can legally issue. The skip
     * bound is the exact next legal issue time (one command slot after
     * a write that leaves a latched drain at or below the low
     * watermark), and arrivals and refresh re-arm the scan at once.
     * Purely a simulation-speed optimization; results are bit-identical
     * either way, which tests/test_mem.cpp and test_sched_conformance
     * assert.
     */
    bool idleSkip = true;
};

/** Aggregate controller statistics (reset at measurement start). */
struct ControllerStats
{
    std::uint64_t readsServiced = 0;
    std::uint64_t writesServiced = 0;
    std::uint64_t activates = 0;
    std::uint64_t precharges = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t rowHits = 0;     //!< column commands to an already-open row
    std::uint64_t rowMisses = 0;   //!< column commands that needed an ACT
    std::uint64_t writeDrains = 0; //!< high-watermark drain latches

    void
    reset()
    {
        *this = ControllerStats{};
    }
};

/**
 * Drives one dram::Channel. Every CPU cycle the controller admits
 * transported requests, runs the refresh engine, and issues at most one
 * DRAM command chosen by a fixed prioritization engine parameterized by
 * the attached SchedulerPolicy (see sched_iface.hpp).
 *
 * Reads are prioritized over writes; writes drain in batches between a
 * high and a low watermark, or opportunistically when no reads are
 * pending (Table 3: "reads prioritized over writes").
 */
class MemoryController
{
  public:
    /** One finished read, ready to wake the issuing core at readyAt. */
    struct Completion
    {
        ThreadId thread;
        std::uint64_t missId;
        Cycle readyAt;
    };

    MemoryController(ChannelId id, const dram::TimingParams &timing,
                     const ControllerParams &params, SchedulerPolicy &sched);

    ChannelId id() const { return id_; }

    /** @{ Backpressure interface used by cores. */
    bool canAcceptRead() const { return queue_.canAcceptRead(); }
    bool canAcceptWrite() const { return queue_.canAcceptWrite(); }
    /** @} */

    /** Submit a read (L2 miss). Asserts capacity. */
    void submitRead(ThreadId thread, std::uint64_t missId, BankId bank,
                    RowId row, ColId col, Cycle now);

    /** Submit a write (dirty writeback). Asserts capacity. */
    void submitWrite(ThreadId thread, BankId bank, RowId row, ColId col,
                     Cycle now);

    /** Advance one CPU cycle: admit arrivals, refresh, issue a command. */
    void tick(Cycle now);

    /**
     * Earliest cycle >= @p now at which tick() could do externally
     * visible work, assuming no new submissions before then (the
     * simulator re-queries after every cycle that submitted): the
     * minimum of the next queued arrival, the next refresh due time,
     * and the next scan slot, max(nextTryAt_, command-bus free time).
     * After a scan nextTryAt_ is the exact next legal issue time (see
     * tick), so a tick at the returned cycle may still issue nothing
     * only when an arrival or refresh re-armed the scan. Ticks at
     * cycles before the returned value are state-preserving no-ops;
     * kCycleNever means idle until outside input.
     */
    Cycle nextEventAt(Cycle now) const;

    /** Completions produced so far; the simulator drains this each cycle. */
    std::vector<Completion> &completions() { return completions_; }

    const ControllerStats &stats() const { return stats_; }

    void
    resetStats()
    {
        stats_.reset();
        latency_.reset();
    }

    /** End-to-end read latency distributions since the last reset. */
    const LatencyTracker &latency() const { return latency_; }

    const dram::Channel &channel() const { return channel_; }

    /**
     * Replace this controller's passive observers (empty or null
     * detaches; a detached one costs a branch where it would be fed).
     * Call before traffic flows; observers outlive the controller.
     * @p commands see every issued command, in list order; @p probe each
     * read's arrival and departure and each command's bank occupancy;
     * @p telemetry each serviced read's queueing delay (arrival to
     * column command) and service time (column command to data at the
     * core); @p profile tick and read-scan wall time and scan counters.
     */
    void observe(std::vector<dram::CommandObserver *> commands,
                 sched::ThreadBankMonitor *probe,
                 telemetry::TelemetrySink *telemetry,
                 prof::Profiler *profile);

    /** Number of queued + in-flight reads (tests/backpressure checks). */
    std::size_t readLoad() const { return queue_.readLoad(); }
    std::size_t writeLoad() const { return queue_.writeLoad(); }

    /** The queued (visible, not yet departed) reads; the policy gets
     *  it in its Wiring (PAR-BS marks batches through it). */
    std::vector<Request> &readQueue() { return queue_.reads(); }

  private:
    /** Next DRAM command needed to advance @p req, given bank state. */
    dram::CommandKind nextCommand(const Request &req) const;

    /**
     * Snapshot the policy's knobs for the scan (hot-path
     * devirtualization) and restamp every queued key from its rank
     * table. Done only when the policy's rank epoch moved; otherwise
     * the snapshot and the keys are still exact.
     */
    void refreshPolicyCache();

    /**
     * Stamp the static half of the packed priority key (batch bit plus
     * biased rank from the policy's rank table) on @p lane's entries
     * from index @p from on; the full key layout is documented at the
     * definition.
     */
    void stampKeys(RequestLane &lane, std::size_t from);

    /**
     * Scan @p lane by packed priority key and issue one command if
     * possible. Each examined candidate costs one readyAt lookup;
     * candidates whose key loses to the best issuable one found so far
     * skip it. A non-null @p profile times a non-empty scan as
     * Phase::ReadScan and counts it; reads only, so the read-scan
     * counters keep their meaning.
     */
    bool tryIssue(RequestLane &lane, prof::Profiler *profile, Cycle now);

    /**
     * Channel::earliestIssue(@p cmd, @p bank), served from the
     * readiness table: one entry per bank and command class (ACT or
     * PRE, RD, WR), recomputed only when the channel version moved
     * since it was filled.
     */
    Cycle readyAt(dram::CommandKind cmd, BankId bank);

    /**
     * Exact next legal issue time over both lanes: the minimum of
     * readyAt(nextCommand(r)) over every queued request, stopping at
     * the command-bus free time, which nothing can beat. kCycleNever
     * when the lanes are empty.
     */
    Cycle nextIssueAt();

    /**
     * Issue nextCommand(@p lane's entry @p best) and apply every side
     * effect (stats, completions, latency, observers, hooks, removal).
     */
    void issueSelected(RequestLane &lane, std::size_t best,
                       dram::CommandKind cmd, Cycle now);

    /** Progress the refresh engine; true if it consumed the command slot. */
    bool refreshEngine(Cycle now);

    /** Closed-page policy: auto-precharge after a column command. */
    void maybeAutoPrecharge(const Request &served);

    ChannelId id_;
    const dram::TimingParams *timing_;
    ControllerParams params_;
    SchedulerPolicy *sched_;
    dram::Channel channel_;
    RequestQueue queue_;
    std::vector<Completion> completions_;
    ControllerStats stats_;
    LatencyTracker latency_;
    sched::ThreadBankMonitor *probe_ = nullptr;
    telemetry::TelemetrySink *telemetry_ = nullptr;
    prof::Profiler *prof_ = nullptr;
    bool drainingWrites_ = false;
    std::vector<Cycle> refreshDueAt_; //!< per rank, staggered
    Cycle nextTryAt_ = 0; //!< idle fast-path: no scan before this cycle
    std::uint64_t nextSeq_ = 0;

    // Policy snapshot, valid while the policy's rank epoch stands still
    // (see refreshPolicyCache).
    Cycle agingCache_ = kCycleNever;
    bool rowHitAboveRankCache_ = false;
    bool useRowHitCache_ = true;
    std::uint64_t policyCacheEpoch_ = 0; //!< 0 = cache never built

    // Open-row snapshot the scans compare against, indexed by bank; taken
    // at most once per tick (see tick).
    std::vector<RowId> openRowScratch_;

    /** One readiness-table entry (see readyAt). */
    struct Readiness
    {
        Cycle at = 0;
        std::uint64_t version = 0; //!< channel version it was filled at
    };
    std::vector<Readiness> ready_; //!< bank * 3 + command class
};

} // namespace tcm::mem
