/**
 * @file
 * Static thread-priority scheduler (for controlled experiments).
 */

#pragma once

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

    int
    rankOf(ChannelId, ThreadId thread) const override
    {
        return ranks_.at(thread);
    }

  private:
    std::vector<int> ranks_;
};

} // namespace tcm::sched
