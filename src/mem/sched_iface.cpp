#include "mem/sched_iface.hpp"

#include <cassert>

#include "telemetry/sink.hpp"

namespace tcm::mem {

void
SchedulerPolicy::configure(const Wiring &wiring)
{
    numThreads_ = wiring.numThreads;
    numChannels_ = wiring.numChannels;
    banksPerChannel_ = wiring.banksPerChannel;
    readQueues_ = wiring.readQueues;
    readQueues_.resize(numChannels_, nullptr);
    coreCounters_ = wiring.coreCounters;
    weights_ = wiring.weights;
    if (weights_.empty())
        weights_.assign(numThreads_, 1);
    assert(static_cast<int>(weights_.size()) == numThreads_);
    for ([[maybe_unused]] int w : weights_)
        assert(w >= 1);
    setRanks(std::vector<int>(numThreads_, 0));
}

void
SchedulerPolicy::setRanks(const std::vector<int> &ranks)
{
    assert(static_cast<int>(ranks.size()) == numThreads_);
    ranks_.assign(numChannels_, ranks);
    ++rankEpoch_;
}

void
SchedulerPolicy::setRanks(ChannelId ch, const std::vector<int> &ranks)
{
    assert(static_cast<int>(ranks.size()) == numThreads_);
    ranks_[ch] = ranks;
    ++rankEpoch_;
}

void
SchedulerPolicy::decide(
    Cycle now, const char *name,
    std::vector<std::pair<std::string, std::string>> args) const
{
    decisionSink_->onDecision(
        telemetry::DecisionEvent{now, name, std::move(args)});
}

} // namespace tcm::mem
