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
struct ControllerShard;
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
 * Write-drain behavior while the queue sits between the watermarks.
 * Opportunistic (the baseline) keeps serving reads whenever no write can
 * issue in a drain cycle; Strict reserves the whole latched drain for
 * writes (USIMM's HI_WM/LO_WM scheme), trading read latency for drain
 * throughput.
 */
enum class WriteDrainMode
{
    Opportunistic,
    Strict,
};

/** Watermark-latched write-drain policy (USIMM HI_WM/LO_WM). */
struct WriteDrainPolicy
{
    WriteDrainMode mode = WriteDrainMode::Opportunistic;
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
     * Close open banks that no queued request targets when the command
     * slot would otherwise go unused (USIMM-style speculative precharge).
     * Off by default; the baseline command traces assume pure demand
     * precharging.
     */
    bool speculativePrecharge = false;

    /**
     * Enter precharge power-down after a rank has been idle (no commands
     * issued to it and nothing queued for it) this many cycles. 0
     * disables power management entirely — the default, preserving the
     * baseline command traces bit-for-bit.
     */
    Cycle powerDownIdleCycles = 0;

    /**
     * Skip scheduling scans until a command could possibly issue
     * (cycle-exact: the skip bound is a lower bound on the next legal
     * issue time, and arrivals re-arm the scan immediately). Purely a
     * simulation-speed optimization; results are bit-identical either
     * way, which tests/test_mem.cpp asserts.
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
    std::uint64_t bankBusyCycles = 0; //!< sum of command occupancies
    std::uint64_t writeDrains = 0; //!< high-watermark drain latches
    std::uint64_t speculativePrecharges = 0; //!< spec-PRE issues
    std::uint64_t powerDowns = 0;  //!< PowerDown commands issued
    std::uint64_t powerUps = 0;    //!< PowerUp commands issued

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
class MemoryController : public QueueAccess
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
     * simulator executes every submission cycle, then re-queries).
     * Conservative lower bound folding the next queued arrival, the
     * next refresh due time, and the next possible command issue
     * (max of nextTryAt_ and the channel's command-bus free time).
     * Ticks at cycles before the returned value are state-preserving
     * no-ops; kCycleNever means idle until outside input.
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
                 prof::ControllerShard *profile);

    /** Number of queued + in-flight reads (tests/backpressure checks). */
    std::size_t readLoad() const { return queue_.readLoad(); }
    std::size_t writeLoad() const { return queue_.writeLoad(); }

    // QueueAccess
    std::vector<Request> &readQueue() override { return queue_.reads(); }

  private:
    /** Next DRAM command needed to advance @p req, given bank state. */
    dram::CommandKind nextCommand(const Request &req) const;

    /**
     * Snapshot scheduler knobs for the scan (hot-path devirtualization).
     * Rebuilt only when the policy's rank epoch moves or a new thread
     * has been seen; otherwise the cached vector is still valid.
     */
    void refreshPolicyCache();

    /** Cached rank lookup for the current scan. */
    int
    cachedRank(ThreadId thread) const
    {
        return thread < static_cast<ThreadId>(rankCache_.size())
                   ? rankCache_[thread]
                   : sched_->rankOf(id_, thread);
    }

    /**
     * Stamp the static half of the packed priority key (batch bit plus
     * biased rank) on @p lane's entries from index @p from on; the full
     * key layout is documented at the definition.
     */
    void stampKeys(RequestLane &lane, std::size_t from);

    /**
     * Scan @p lane by packed priority key and issue one command if
     * possible, skipping the canIssue check for candidates whose key
     * loses to the best issuable one found so far. When no command can
     * issue, lowers @p nextPossible to the earliest cycle any candidate
     * could become issuable. A non-null @p shard times the scan as
     * Phase::ReadScan and counts it; reads only, so the read-scan
     * counters keep their meaning.
     */
    bool tryIssue(RequestLane &lane, prof::ControllerShard *shard, Cycle now,
                  Cycle &nextPossible);

    /**
     * Issue nextCommand(@p lane's entry @p best) and apply every side
     * effect (stats, completions, latency, observers, hooks, removal).
     */
    void issueSelected(RequestLane &lane, std::size_t best,
                       dram::CommandKind cmd, Cycle now);

    /** True when a queued read or write satisfies @p pred(bank, row). */
    template <typename Pred>
    bool
    anyQueued(Pred pred) const
    {
        for (const RequestLane *lane :
             {&queue_.readLane(), &queue_.writeLane()})
            for (std::size_t i = 0; i < lane->size(); ++i)
                if (pred(lane->bank()[i], lane->row()[i]))
                    return true;
        return false;
    }

    /** Progress the refresh engine; true if it consumed the command slot. */
    bool refreshEngine(Cycle now);

    /**
     * Per-rank power management (powerDownIdleCycles > 0): powers a rank
     * back up when work arrives for it, and walks an idle rank down
     * (precharge open banks, then PowerDown). True if it consumed the
     * command slot.
     */
    bool powerManagement(Cycle now);

    /** True when any queued read or write targets rank @p rank. */
    bool
    rankHasQueuedWork(int rank) const
    {
        return anyQueued(
            [&](BankId bank, RowId) { return channel_.rankOf(bank) == rank; });
    }

    /**
     * Speculative precharge: close one open bank no queued request
     * targets. On failure lowers @p nextPossible to the earliest cycle a
     * speculative precharge could issue. True if one issued.
     */
    bool trySpeculativePrecharge(Cycle now, Cycle &nextPossible);

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
    prof::ControllerShard *prof_ = nullptr;
    bool drainingWrites_ = false;
    std::vector<Cycle> refreshDueAt_; //!< per rank, staggered
    std::vector<Cycle> rankLastActiveAt_; //!< last scheduler/refresh command
    Cycle nextTryAt_ = 0; //!< idle fast-path: no scan before this cycle
    std::uint64_t nextSeq_ = 0;

    // Policy snapshot, valid while the policy's rank epoch stands still
    // (see refreshPolicyCache).
    std::vector<int> rankCache_;
    Cycle agingCache_ = kCycleNever;
    bool rowHitAboveRankCache_ = false;
    bool useRowHitCache_ = true;
    ThreadId maxThreadSeen_ = 0;
    std::uint64_t policyCacheEpoch_ = 0; //!< 0 = cache never built

    // Open-row snapshot the scans compare against, indexed by bank; taken
    // at most once per tick (see tick).
    std::vector<RowId> openRowScratch_;
};

} // namespace tcm::mem
