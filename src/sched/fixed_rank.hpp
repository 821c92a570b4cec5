/**
 * @file
 * Static thread-priority scheduler (for controlled experiments).
 */

#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sched/scheduler.hpp"

namespace tcm::sched {

/**
 * Strictly prioritizes threads by a fixed rank vector (larger = higher
 * priority). This reproduces the paper's Section 2.4 case study, where
 * one thread is statically prioritized over another, and models the
 * degenerate "strict ranking" regime that makes ATLAS unfair.
 */
class FixedRank : public SchedulerPolicy
{
  public:
    /** @param ranks rank per thread id; larger means higher priority. */
    explicit FixedRank(std::vector<int> ranks) : ranks_(std::move(ranks)) {}

    const char *name() const override { return "FixedRank"; }

    /** Publishes the ranks; throws std::out_of_range when there are
     *  fewer ranks than threads. */
    void
    configure(const Wiring &wiring) override
    {
        SchedulerPolicy::configure(wiring);
        if (ranks_.size() < static_cast<std::size_t>(numThreads_))
            throw std::out_of_range(
                "FixedRank: " + std::to_string(ranks_.size()) +
                " ranks for " + std::to_string(numThreads_) + " threads");
        setRanks({ranks_.begin(), ranks_.begin() + numThreads_});
    }

  private:
    std::vector<int> ranks_;
};

} // namespace tcm::sched
