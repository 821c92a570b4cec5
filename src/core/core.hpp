/**
 * @file
 * Simplified out-of-order core model.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "core/trace.hpp"
#include "mem/controller.hpp"
#include "mem/sched_iface.hpp"

namespace tcm::core {

/** Core pipeline parameters (Table 3). */
struct CoreParams
{
    int windowSize = 128;      //!< instruction window entries
    int fetchWidth = 3;        //!< instructions fetched per cycle
    int retireWidth = 3;       //!< instructions retired per cycle
    int maxMemPerCycle = 1;    //!< memory operations issued per cycle
};

/**
 * Models one hardware thread the way memory-scheduling studies do: a
 * 128-entry window retiring 3 instructions per cycle in order, where
 * non-miss instructions always complete and L2-miss loads block
 * retirement until DRAM responds. Writebacks are posted: they consume a
 * fetch slot and write-buffer capacity but never stall retirement.
 *
 * This captures the two behaviours that matter to a memory scheduler:
 * memory-non-intensive threads progress at ~3 IPC and stall completely on
 * a rare miss (latency-sensitive), while memory-intensive threads keep
 * many misses in flight and their throughput tracks DRAM service rate
 * (bandwidth-sensitive).
 */
class Core
{
  public:
    /**
     * @param id this thread's id
     * @param params pipeline widths
     * @param trace the instruction stream to execute
     * @param controllers channel-indexed memory controllers
     * @param counters externally owned counter slot (simulator-owned so
     *        schedulers can read all cores' counters as one vector)
     */
    Core(ThreadId id, const CoreParams &params, TraceSource &trace,
         std::vector<mem::MemoryController *> controllers,
         mem::CoreCounters *counters);

    /**
     * Advance one cycle: retire, then fetch/issue. Returns true when the
     * cycle submitted a read or a write to a memory controller, the one
     * effect a core has outside itself and its counters (the
     * cycle-skip kernel re-queries its horizon after such a cycle).
     */
    bool tick(Cycle now);

    /** DRAM data for @p missId will be available at @p readyAt. */
    void completeMiss(std::uint64_t missId, Cycle readyAt);

    // -- event-horizon support (cycle-skipping kernel) ----------------------

    /**
     * Number of cycles starting at @p now (capped at @p maxSpan) that
     * this core can provably advance with no externally visible effect
     * other than counter updates, under the span guarantee that no
     * completion arrives. 0 means the core must be ticked normally.
     * Covers the two steady-state regimes: a fully stalled window (pure
     * no-op ticks) and pure plain-instruction streaming (closed-form
     * advance). Neither reaches a memory access or pulls a trace item,
     * so other cores' submissions cannot end a span.
     * Apply with fastForwardSilent(k) for any k <= the returned span.
     * Defined inline: this and fastForwardSilent are the cycle-skip
     * kernel's innermost operations.
     */
    Cycle
    silentSpan(Cycle now, Cycle maxSpan) const
    {
        if (window_.empty())
            return 0;
        const Entry &head = window_.front();

        // Regime 1 — dormant: window full, head miss not yet
        // retireable. Both retire and fetch are complete no-ops until
        // the miss's data becomes ready (or a completion arrives, which
        // only happens at an executed cycle, ending the span anyway).
        if (head.plain == 0 && occupancy_ >= params_.windowSize) {
            auto it = done_.find(head.missId);
            if (it == done_.end())
                return maxSpan; // blocked until external completeMiss
            if (it->second > now)
                return maxSpan < it->second - now ? maxSpan
                                                  : it->second - now;
            return 0; // data ready: this tick retires
        }

        // Regime 2 — pure streaming: a single plain bundle spans the
        // whole window, widths are symmetric, and the pending gap keeps
        // every fetch slot busy. Each tick then retires and fetches
        // exactly fetchWidth plain instructions, leaving the window
        // value-identical (see fastForwardSilent).
        if (params_.fetchWidth == params_.retireWidth && havePending_ &&
            window_.size() == 1 && head.plain > 0 &&
            static_cast<int>(head.plain) == occupancy_ &&
            occupancy_ >= params_.retireWidth) {
            const std::uint64_t fw =
                static_cast<std::uint64_t>(params_.fetchWidth);
            if (pendingGap_ >= fw) {
                Cycle span = pendingGap_ / fw;
                return maxSpan < span ? maxSpan : span;
            }
        }
        return 0;
    }

    /**
     * Apply @p k cycles of the regime detected by silentSpan: state
     * afterwards is bit-identical to k calls of tick(). Only valid for
     * k <= the span silentSpan just returned.
     */
    void
    fastForwardSilent(Cycle k)
    {
        if (window_.front().plain == 0)
            return; // dormant: k ticks were pure no-ops
        // Streaming: k ticks each retired and fetched fetchWidth plain
        // instructions; the window (one bundle of occupancy_
        // instructions) is value-identical afterwards.
        const std::uint64_t fw =
            static_cast<std::uint64_t>(params_.fetchWidth);
        counters_->instructions += fw * k;
        pendingGap_ -= fw * k;
    }

    /**
     * Regime classifier for a silent span just detected by silentSpan:
     * true when the head of the window is a stalled miss (dormant
     * regime), false when the span is plain-instruction streaming.
     * Pure observer — only the profiler's regime-occupancy counters
     * consume it; fastForwardSilent leaves the answer unchanged.
     */
    bool
    dormantHead() const
    {
        return !window_.empty() && window_.front().plain == 0;
    }

    ThreadId id() const { return id_; }

    /** Instructions currently occupying the window (tests). */
    int windowOccupancy() const { return occupancy_; }

  private:
    /** A window entry: either a bundle of plain instructions or a miss. */
    struct Entry
    {
        std::uint32_t plain; //!< >0: bundle size; ==0: miss entry
        std::uint64_t missId;
    };

    void retire(Cycle now);
    /** Returns true when a memory operation was submitted. */
    bool fetch(Cycle now);

    ThreadId id_;
    CoreParams params_;
    TraceSource *trace_;
    std::vector<mem::MemoryController *> controllers_;
    mem::CoreCounters *counters_;

    std::deque<Entry> window_;
    int occupancy_ = 0;

    // Completion times for misses whose data has been scheduled.
    std::unordered_map<std::uint64_t, Cycle> done_;
    std::uint64_t nextMissId_ = 1;

    // Trace cursor: pendingGap_ plain instructions precede pendingAccess_.
    std::uint64_t pendingGap_ = 0;
    MemAccess pendingAccess_;
    bool havePending_ = false;
};

} // namespace tcm::core
