#include "sched/stfm.hpp"

#include <algorithm>

#include "telemetry/sink.hpp"

namespace tcm::sched {

Stfm::Stfm(const StfmParams &params) : params_(params)
{
    nextUpdateAt_ = params_.updatePeriod;
    nextIntervalAt_ = params_.intervalLength;
}

void
Stfm::configure(const Wiring &wiring)
{
    SchedulerPolicy::configure(wiring);
    monitor_.configure(numThreads_, numChannels_ * banksPerChannel_,
                       banksPerChannel_);
    outstanding_.assign(numThreads_, 0);
    stShared_.assign(numThreads_, 0.0);
    interference_.assign(numThreads_, 0.0);
}

void
Stfm::onArrival(const Request &req, Cycle now)
{
    if (req.isWrite)
        return;
    // Shadow-hit status must be sampled *before* the monitor updates the
    // shadow row to this request's row.
    bool shadow_hit =
        monitor_.shadowRow(req.thread, monitor_.bankIndex(req)) == req.row;
    monitor_.onArrival(req, now);
    if (shadow_hit)
        shadowHitSeqs_.insert(req.seq);
    ++outstanding_[req.thread];
}

void
Stfm::onDepart(const Request &req, Cycle now)
{
    if (req.isWrite)
        return;
    monitor_.onDepart(req, now);
    shadowHitSeqs_.erase(req.seq);
    --outstanding_[req.thread];
}

void
Stfm::onCommand(const Request &req, dram::CommandKind kind, Cycle,
                Cycle occupancy)
{
    // Bank interference: every other thread with a request waiting on
    // this bank is delayed by the cycles the bank now spends on req —
    // scaled down by the victim's bank-level parallelism, because a
    // delay at one of k concurrently loaded banks overlaps with service
    // at the other k-1 (STFM's parallelism factor, MICRO-40 Section 3).
    int bank = monitor_.bankIndex(req);
    for (ThreadId t = 0; t < numThreads_; ++t) {
        if (t == req.thread)
            continue;
        if (monitor_.load(t, bank) > 0) {
            int parallelism = std::max(1, monitor_.banksWithLoad(t));
            interference_[t] +=
                static_cast<double>(occupancy) / parallelism;
        }
    }

    // Row-buffer interference: this request would have been a row hit
    // had the thread run alone, but needed an activate here.
    if (kind == dram::CommandKind::Activate && !req.isWrite &&
        shadowHitSeqs_.count(req.seq)) {
        interference_[req.thread] +=
            static_cast<double>(params_.tRowPenalty);
    }
}

double
Stfm::slowdownEstimate(ThreadId t) const
{
    double shared = stShared_[t];
    if (shared < 1.0)
        return 1.0;
    double alone = shared - std::min(interference_[t], 0.95 * shared);
    return shared / alone;
}

void
Stfm::updateRanks(Cycle now)
{
    // A thread with negligible memory stall time is, by definition, not
    // slowed down by memory: its slowdown is 1.0 and it anchors the
    // minimum. Only threads with meaningful stall can be victims.
    constexpr double kMinStall = 1000.0;
    std::vector<double> slowdown(numThreads_, 1.0);
    double maxS = 1.0, minS = 1.0;
    ThreadId victim = kNoThread;
    for (ThreadId t = 0; t < numThreads_; ++t) {
        double s = stShared_[t] < kMinStall ? 1.0 : slowdownEstimate(t);
        slowdown[t] = s;
        if (s > maxS) {
            maxS = s;
            victim = t;
        }
        minS = std::min(minS, s);
    }

    std::vector<int> rank(numThreads_, 0);
    bool prioritized =
        victim != kNoThread && maxS / minS > params_.fairnessThreshold;
    if (prioritized) {
        rank[victim] = 1; // prioritize the most slowed-down thread
    }
    setRanks(rank);

    if (decisionSink_)
        decide(now, "stfm.update",
               {{"slowdown", telemetry::jsonArray(slowdown)},
                {"unfairness", telemetry::jsonNumber(maxS / minS)},
                {"victim",
                 telemetry::jsonNumber(static_cast<std::int64_t>(
                     prioritized ? victim : kNoThread))}});
}

void
Stfm::syncTo(Cycle now)
{
    double span;
    if (lastAccruedAt_ == kCycleNever)
        span = 1.0; // first tick ever: one cycle, as the per-cycle loop
    else if (now <= lastAccruedAt_)
        return;
    else
        span = static_cast<double>(now - lastAccruedAt_);
    lastAccruedAt_ = now;
    for (ThreadId t = 0; t < numThreads_; ++t)
        if (outstanding_[t] > 0)
            stShared_[t] += span;
}

void
Stfm::tick(Cycle now)
{
    // Stall accrual for every cycle since the last tick (span 1 when
    // ticked per cycle — identical to the historical "+1 per cycle").
    syncTo(now);

    if (now >= nextUpdateAt_) {
        updateRanks(now);
        nextUpdateAt_ = now + params_.updatePeriod;
    }
    if (now >= nextIntervalAt_) {
        for (ThreadId t = 0; t < numThreads_; ++t) {
            stShared_[t] *= 0.5;
            interference_[t] *= 0.5;
        }
        nextIntervalAt_ = now + params_.intervalLength;
    }
}

} // namespace tcm::sched
