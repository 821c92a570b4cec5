/**
 * @file
 * BLISS: the Blacklisting Memory Scheduler (Subramanian et al.,
 * ICCD 2014 / arXiv 1504.00390).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "sched/scheduler.hpp"

namespace tcm::sched {

/** BLISS configuration (paper Section 7 defaults). */
struct BlissParams
{
    /** Consecutive requests served from one application before it is
     *  blacklisted (the paper's "Blacklisting Threshold"). */
    int blacklistThreshold = 4;

    /** Cycles between blacklist clearings (the paper's "Clearing
     *  Interval"). An absolute interference time constant, like ATLAS's
     *  aging threshold — deliberately not scaled to the run length. */
    Cycle clearInterval = 10'000;
};

/**
 * BLISS argues that full per-application ranking (TCM/ATLAS) is
 * unnecessary: it suffices to separate applications into just two
 * groups. Each controller counts consecutive requests served from the
 * same application; when the streak crosses the blacklist threshold,
 * that application is blacklisted (deprioritized below everyone else)
 * until the periodic clearing resets all blacklists. Interference-heavy
 * streaks are broken up cheaply while the scheduler otherwise stays
 * FR-FCFS — non-blacklisted requests win tier 3, then row-hit, then age.
 *
 * Fast-path contracts: served-request events observed through onDepart
 * are queued and *applied at the next tick*, never inside the hook —
 * ranks therefore only change in tick(), so a controller scanning at
 * cycle u sees the ranks the policy published at tick(u). This one-tick
 * delay is part of the model: the committed BLISS golden command trace
 * and the zoo claims golden encode it. nextEventAt() is the next
 * clearing boundary, or `now` while served events are pending.
 */
class Bliss : public SchedulerPolicy
{
  public:
    explicit Bliss(const BlissParams &params);

    const char *name() const override { return "BLISS"; }

    void configure(const Wiring &wiring) override;

    void onDepart(const Request &req, Cycle now) override;
    void tick(Cycle now) override;

    /** Next clearing boundary; `now` while served events are pending. */
    Cycle nextEventAt(Cycle now) const override;

    /** Is @p thread currently blacklisted at @p ch? (tests) */
    bool
    isBlacklisted(ChannelId ch, ThreadId thread) const
    {
        return blacklisted_[ch][thread] != 0;
    }

    /** Total blacklisted (channel, thread) entries right now. (tests) */
    int blacklistedCount() const;

    const BlissParams &params() const { return params_; }

  private:
    /** Publish every channel's ranks: 0 blacklisted, 1 otherwise. */
    void publishRanks();

    /** A read left some channel's queue; recorded by onDepart, applied
     *  in tick() so rank mutations never happen inside a hook. */
    struct ServedEvent
    {
        ChannelId channel;
        ThreadId thread;
    };

    BlissParams params_;
    std::vector<ServedEvent> pendingServed_;
    std::vector<ThreadId> lastServed_;        //!< per channel
    std::vector<int> streak_;                 //!< per channel
    std::vector<std::vector<std::uint8_t>> blacklisted_; //!< [ch][thread]
    Cycle nextClearAt_ = 0;
};

} // namespace tcm::sched
