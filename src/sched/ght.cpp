#include "sched/ght.hpp"

#include <algorithm>

#include "telemetry/sink.hpp"

namespace tcm::sched {

Ght::Ght(const GhtParams &params) : params_(params)
{
    nextIntervalAt_ = params_.interval;
    nextRotateAt_ = params_.rotatePeriod;
}

void
Ght::configure(const Wiring &wiring)
{
    SchedulerPolicy::configure(wiring);
    history_.assign(numThreads_, std::vector<Entry>(params_.tableSize));
    intervalReads_.assign(numThreads_, 0);
    intervalHits_.assign(numThreads_, 0);
    boosted_.assign(numThreads_, 0);
    // Before the first interval completes everyone is "intensive" with
    // no reuse history: a deterministic thread-id rotation order.
    heavyOrder_.resize(numThreads_);
    for (ThreadId t = 0; t < numThreads_; ++t)
        heavyOrder_[t] = t;
    rotateOffset_ = 0;
    publishRanks();
}

void
Ght::onDepart(const Request &req, Cycle)
{
    if (req.isWrite)
        return;
    ++intervalReads_[req.thread];
    // Direct-mapped lookup keyed by (channel, bank, row): a tag match is
    // row reuse; a miss evicts the slot (refCount restarts at 1).
    std::uint64_t key = (static_cast<std::uint64_t>(req.channel) << 44) ^
                        (static_cast<std::uint64_t>(req.bank) << 36) ^
                        static_cast<std::uint64_t>(
                            static_cast<std::uint32_t>(req.row));
    Entry &e = history_[req.thread][key %
                                    static_cast<std::uint64_t>(
                                        params_.tableSize)];
    if (e.refCount > 0 && e.tag == key) {
        ++intervalHits_[req.thread];
        if (e.refCount < params_.maxRefCount)
            ++e.refCount;
    } else {
        e.tag = key;
        e.refCount = 1;
    }
}

void
Ght::tick(Cycle now)
{
    bool changed = false;
    if (now >= nextIntervalAt_) {
        nextIntervalAt_ = now + params_.interval;
        reclassify(now);
        changed = true;
    }
    if (now >= nextRotateAt_) {
        nextRotateAt_ = now + params_.rotatePeriod;
        if (heavyOrder_.size() > 1) {
            rotateOffset_ = (rotateOffset_ + 1) %
                            static_cast<int>(heavyOrder_.size());
            changed = true;
        }
    }
    if (changed)
        publishRanks();
}

void
Ght::reclassify(Cycle now)
{
    std::uint64_t heaviest = 0;
    for (ThreadId t = 0; t < numThreads_; ++t)
        heaviest = std::max(heaviest, intervalReads_[t]);

    heavyOrder_.clear();
    for (ThreadId t = 0; t < numThreads_; ++t)
        boosted_[t] =
            intervalReads_[t] * static_cast<std::uint64_t>(
                                    params_.boostFactor) <
                    heaviest
                ? 1
                : 0;

    // Intensive threads ordered by descending reuse fraction so
    // row-local threads sit adjacent near the top of the rotation; ties
    // break by thread id for determinism. Integer cross-multiplication
    // avoids a float compare.
    for (ThreadId t = 0; t < numThreads_; ++t)
        if (!boosted_[t])
            heavyOrder_.push_back(t);
    std::stable_sort(heavyOrder_.begin(), heavyOrder_.end(),
                     [this](ThreadId a, ThreadId b) {
                         std::uint64_t lhs =
                             intervalHits_[a] *
                             std::max<std::uint64_t>(intervalReads_[b], 1);
                         std::uint64_t rhs =
                             intervalHits_[b] *
                             std::max<std::uint64_t>(intervalReads_[a], 1);
                         return lhs > rhs;
                     });
    rotateOffset_ = 0;

    if (decisionSink_) {
        std::vector<int> reads(numThreads_), hits(numThreads_),
            boostedArg(numThreads_);
        for (ThreadId t = 0; t < numThreads_; ++t) {
            reads[t] = static_cast<int>(intervalReads_[t]);
            hits[t] = static_cast<int>(intervalHits_[t]);
            boostedArg[t] = boosted_[t];
        }
        decide(now, "ght.interval",
               {{"reads", telemetry::jsonArray(reads)},
                {"hits", telemetry::jsonArray(hits)},
                {"boosted", telemetry::jsonArray(boostedArg)}});
    }

    // Decay instead of reset so classification has hysteresis, and halve
    // the table's reference counts so stale rows age out (the exemplar's
    // periodic refcount decrement, batched per interval).
    for (ThreadId t = 0; t < numThreads_; ++t) {
        intervalReads_[t] /= 2;
        intervalHits_[t] /= 2;
        for (Entry &e : history_[t])
            e.refCount = static_cast<std::uint8_t>(e.refCount / 2);
    }
}

void
Ght::publishRanks()
{
    // Intensive threads occupy ranks [0, heavy); the rotated front of
    // heavyOrder_ gets the highest intensive rank. Boosted threads all
    // share one top band above every intensive thread — within the band
    // FR-FCFS (row-hit, then age) arbitrates, which is exactly how the
    // exemplar treats its low-traffic CPUs.
    const int heavy = static_cast<int>(heavyOrder_.size());
    std::vector<int> rank(numThreads_);
    for (int i = 0; i < heavy; ++i) {
        ThreadId t = heavyOrder_[(i + rotateOffset_) % heavy];
        rank[t] = heavy - 1 - i;
    }
    for (ThreadId t = 0; t < numThreads_; ++t)
        if (boosted_[t])
            rank[t] = heavy;
    setRanks(rank);
}

} // namespace tcm::sched
