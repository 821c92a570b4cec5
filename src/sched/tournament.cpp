#include "sched/tournament.hpp"

#include <algorithm>
#include <cassert>

#include "common/json.hpp"
#include "telemetry/sink.hpp"

namespace tcm::sched {

Tournament::Tournament(
    std::vector<std::unique_ptr<SchedulerPolicy>> candidates,
    const TournamentParams &params)
    : candidates_(std::move(candidates)), params_(params)
{
    assert(!candidates_.empty());
    scores_.assign(candidates_.size(), 0.0);
    nextQuantumAt_ = params_.quantum;
}

void
Tournament::configure(const Wiring &wiring)
{
    SchedulerPolicy::configure(wiring);
    for (auto &c : candidates_)
        c->configure(wiring);
    lastInstructions_.assign(numThreads_, 0);
    bestInterval_.assign(numThreads_, 0);
    publishLive();
}

void
Tournament::setDecisionSink(telemetry::TelemetrySink *sink)
{
    SchedulerPolicy::setDecisionSink(sink);
    for (auto &c : candidates_)
        c->setDecisionSink(sink);
}

void
Tournament::onArrival(const Request &req, Cycle now)
{
    for (auto &c : candidates_)
        c->onArrival(req, now);
    noteLiveEpoch();
}

void
Tournament::onDepart(const Request &req, Cycle now)
{
    for (auto &c : candidates_)
        c->onDepart(req, now);
    noteLiveEpoch();
}

void
Tournament::onCommand(const Request &req, dram::CommandKind kind, Cycle now,
                      Cycle occupancy)
{
    for (auto &c : candidates_)
        c->onCommand(req, kind, now, occupancy);
    noteLiveEpoch();
}

void
Tournament::tick(Cycle now)
{
    for (auto &c : candidates_)
        c->tick(now);
    if (now >= nextQuantumAt_) {
        nextQuantumAt_ = now + params_.quantum;
        quantumBoundary(now);
    }
    noteLiveEpoch();
}

Cycle
Tournament::nextEventAt(Cycle now) const
{
    Cycle h = nextQuantumAt_;
    for (const auto &c : candidates_)
        h = std::min(h, c->nextEventAt(now));
    return h;
}

void
Tournament::syncTo(Cycle now)
{
    for (auto &c : candidates_)
        c->syncTo(now);
}

void
Tournament::publishLive()
{
    lastLiveEpoch_ = live().rankEpoch();
    for (ChannelId ch = 0; ch < numChannels_; ++ch)
        setRanks(ch, live().ranks(ch));
}

void
Tournament::noteLiveEpoch()
{
    if (live().rankEpoch() != lastLiveEpoch_)
        publishLive();
}

void
Tournament::quantumBoundary(Cycle now)
{
    const int numCandidates = static_cast<int>(candidates_.size());

    // Score the elapsed quantum from the core counters. Rigs without a
    // counter feed still rotate deterministically on zero scores.
    if (coreCounters_ != nullptr) {
        double wsEst = 0.0;
        double msEst = 1.0;
        for (ThreadId t = 0; t < numThreads_; ++t) {
            std::uint64_t instr = (*coreCounters_)[t].instructions;
            std::uint64_t delta = instr - lastInstructions_[t];
            lastInstructions_[t] = instr;
            bestInterval_[t] = std::max(bestInterval_[t], delta);
            if (bestInterval_[t] == 0) {
                wsEst += 1.0; // thread never retired anything yet
                continue;
            }
            double best = static_cast<double>(bestInterval_[t]);
            wsEst += static_cast<double>(delta) / best;
            msEst = std::max(
                msEst, best / static_cast<double>(std::max<std::uint64_t>(
                                  delta, 1)));
        }
        double score = wsEst - params_.fairnessWeight * msEst;
        scores_[liveIdx_] = params_.scoreAlpha * score +
                            (1.0 - params_.scoreAlpha) * scores_[liveIdx_];
    }

    // Deterministic explore/exploit rotation: one quantum per candidate,
    // then exploitQuanta quanta of the current argmax.
    ++quantumIdx_;
    const std::uint64_t period =
        static_cast<std::uint64_t>(numCandidates) +
        static_cast<std::uint64_t>(std::max(params_.exploitQuanta, 0));
    const std::uint64_t slot = quantumIdx_ % period;
    int next;
    if (slot < static_cast<std::uint64_t>(numCandidates)) {
        next = static_cast<int>(slot);
    } else {
        next = 0;
        for (int i = 1; i < numCandidates; ++i)
            if (scores_[i] > scores_[next])
                next = i;
    }

    if (next != liveIdx_) {
        if (decisionSink_)
            decide(now, "tournament.switch",
                   {{"quantum", telemetry::jsonNumber(quantumIdx_)},
                    {"from", json::quote(live().name())},
                    {"to", json::quote(candidates_[next]->name())},
                    {"scores", telemetry::jsonArray(scores_)}});
        liveIdx_ = next;
        publishLive();
    }
}

} // namespace tcm::sched
