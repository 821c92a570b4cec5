#include "sched/parbs.hpp"

#include <algorithm>
#include <numeric>

#include "telemetry/sink.hpp"

namespace tcm::sched {

ParBs::ParBs(const ParBsParams &params) : params_(params)
{
}

void
ParBs::configure(const Wiring &wiring)
{
    SchedulerPolicy::configure(wiring);
    markedRemaining_.assign(numChannels_, 0);
    queuedReads_.assign(numChannels_, 0);
}

void
ParBs::onArrival(const Request &req, Cycle)
{
    if (!req.isWrite)
        ++queuedReads_[req.channel];
}

void
ParBs::onDepart(const Request &req, Cycle now)
{
    if (!req.isWrite)
        --queuedReads_[req.channel];
    if (req.marked && !req.isWrite) {
        --markedRemaining_[req.channel];
        if (markedRemaining_[req.channel] == 0 && decisionSink_)
            decide(now, "parbs.batch_done",
                   {{"channel", telemetry::jsonNumber(
                                    static_cast<std::int64_t>(
                                        req.channel))}});
    }
}

void
ParBs::tick(Cycle now)
{
    for (ChannelId ch = 0; ch < numChannels_; ++ch)
        if (markedRemaining_[ch] == 0 && readQueues_[ch])
            formBatch(ch, now);
}

Cycle
ParBs::nextEventAt(Cycle now) const
{
    for (ChannelId ch = 0; ch < numChannels_; ++ch)
        if (markedRemaining_[ch] == 0 && queuedReads_[ch] > 0 &&
            readQueues_[ch])
            return now;
    return kCycleNever;
}

void
ParBs::formBatch(ChannelId ch, Cycle now)
{
    // Collect queued reads per (thread, bank).
    struct Slot
    {
        std::vector<Request *> reqs;
    };
    std::vector<Slot> slots(static_cast<std::size_t>(numThreads_) *
                            banksPerChannel_);
    std::vector<Request> &reads = *readQueues_[ch];
    for (Request &req : reads)
        slots[static_cast<std::size_t>(req.thread) * banksPerChannel_ +
              req.bank]
            .reqs.push_back(&req);
    if (reads.empty())
        return; // nothing to batch; ranks keep their previous values

    // Mark up to batchCap oldest requests per (thread, bank) and compute
    // each thread's per-bank and total marked load.
    std::vector<int> maxLoad(numThreads_, 0);
    std::vector<int> totalLoad(numThreads_, 0);
    int marked = 0;
    for (ThreadId t = 0; t < numThreads_; ++t) {
        for (BankId b = 0; b < banksPerChannel_; ++b) {
            auto &reqs =
                slots[static_cast<std::size_t>(t) * banksPerChannel_ + b]
                    .reqs;
            if (reqs.empty())
                continue;
            std::sort(reqs.begin(), reqs.end(),
                      [](const Request *x, const Request *y) {
                          if (x->arrivedAt != y->arrivedAt)
                              return x->arrivedAt < y->arrivedAt;
                          return x->seq < y->seq;
                      });
            int take = std::min<int>(params_.batchCap,
                                     static_cast<int>(reqs.size()));
            for (int i = 0; i < take; ++i)
                reqs[i]->marked = true;
            marked += take;
            totalLoad[t] += take;
            maxLoad[t] = std::max(maxLoad[t], take);
        }
    }
    markedRemaining_[ch] = marked;

    // Max-total ranking: lighter batch jobs rank higher.
    std::vector<ThreadId> order(numThreads_);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](ThreadId a, ThreadId b) {
        if (maxLoad[a] != maxLoad[b])
            return maxLoad[a] < maxLoad[b];
        if (totalLoad[a] != totalLoad[b])
            return totalLoad[a] < totalLoad[b];
        return a < b;
    });
    std::vector<int> rank(numThreads_);
    for (int i = 0; i < numThreads_; ++i)
        rank[order[i]] = numThreads_ - 1 - i; // lightest -> highest
    setRanks(ch, rank);

    if (decisionSink_)
        decide(now, "parbs.batch",
               {{"channel",
                 telemetry::jsonNumber(static_cast<std::int64_t>(ch))},
                {"marked",
                 telemetry::jsonNumber(static_cast<std::int64_t>(marked))},
                {"ranks", telemetry::jsonArray(rank)}});
}

} // namespace tcm::sched
