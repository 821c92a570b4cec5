#include "sched/bliss.hpp"

#include <algorithm>

#include "telemetry/sink.hpp"

namespace tcm::sched {

Bliss::Bliss(const BlissParams &params) : params_(params)
{
    nextClearAt_ = params_.clearInterval;
}

void
Bliss::configure(const Wiring &wiring)
{
    SchedulerPolicy::configure(wiring);
    lastServed_.assign(numChannels_, kNoThread);
    streak_.assign(numChannels_, 0);
    blacklisted_.assign(numChannels_,
                        std::vector<std::uint8_t>(numThreads_, 0));
    pendingServed_.clear();
    publishRanks();
}

void
Bliss::publishRanks()
{
    std::vector<int> rank(numThreads_);
    for (ChannelId ch = 0; ch < numChannels_; ++ch) {
        for (ThreadId t = 0; t < numThreads_; ++t)
            rank[t] = blacklisted_[ch][t] ? 0 : 1;
        setRanks(ch, rank);
    }
}

void
Bliss::onDepart(const Request &req, Cycle)
{
    if (req.isWrite)
        return; // write drains are bursty by design; only reads count
    pendingServed_.push_back(ServedEvent{req.channel, req.thread});
}

void
Bliss::tick(Cycle now)
{
    bool changed = false;

    // Apply the served-request stream recorded since the last tick, in
    // delivery order: cycle-major, channel-minor, the order the
    // controllers fire their hooks in.
    if (!pendingServed_.empty()) {
        for (const ServedEvent &ev : pendingServed_) {
            if (ev.thread == lastServed_[ev.channel]) {
                ++streak_[ev.channel];
            } else {
                lastServed_[ev.channel] = ev.thread;
                streak_[ev.channel] = 1;
            }
            if (streak_[ev.channel] >= params_.blacklistThreshold &&
                !blacklisted_[ev.channel][ev.thread]) {
                blacklisted_[ev.channel][ev.thread] = 1;
                changed = true;
                if (decisionSink_)
                    decide(now, "bliss.blacklist",
                           {{"channel",
                             telemetry::jsonNumber(
                                 static_cast<std::int64_t>(ev.channel))},
                            {"thread",
                             telemetry::jsonNumber(
                                 static_cast<std::int64_t>(ev.thread))},
                            {"streak",
                             telemetry::jsonNumber(static_cast<std::int64_t>(
                                 streak_[ev.channel]))}});
            }
        }
        pendingServed_.clear();
    }

    if (now >= nextClearAt_) {
        nextClearAt_ = now + params_.clearInterval;
        int cleared = blacklistedCount();
        if (cleared > 0) {
            for (auto &perThread : blacklisted_)
                std::fill(perThread.begin(), perThread.end(),
                          std::uint8_t{0});
            changed = true;
        }
        // The paper clears the *blacklist* each interval; the streak
        // counters restart with it so one long pre-boundary run cannot
        // instantly re-blacklist.
        std::fill(lastServed_.begin(), lastServed_.end(), kNoThread);
        std::fill(streak_.begin(), streak_.end(), 0);
        if (decisionSink_)
            decide(now, "bliss.clear",
                   {{"cleared", telemetry::jsonNumber(
                                    static_cast<std::int64_t>(cleared))}});
    }

    if (changed)
        publishRanks();
}

Cycle
Bliss::nextEventAt(Cycle now) const
{
    return pendingServed_.empty() ? nextClearAt_ : now;
}

int
Bliss::blacklistedCount() const
{
    int n = 0;
    for (const auto &perThread : blacklisted_)
        for (std::uint8_t b : perThread)
            n += b;
    return n;
}

} // namespace tcm::sched
