/**
 * @file
 * Shared helpers for scheduling algorithms.
 */

#pragma once

#include <vector>

#include "common/types.hpp"
#include "mem/sched_iface.hpp"

namespace tcm::sched {

using mem::CoreCounters;
using mem::Request;
using mem::SchedulerPolicy;
using mem::Wiring;

/**
 * Position of each element when the vector is sorted ascending: the
 * smallest value gets position 0, the largest position n-1. Exact ties
 * break by index (lower index first) so results are deterministic.
 *
 * Used for the paper's rank-based formulas: a thread with the b-th
 * *lowest* BLP has ascendingPositions(blp)[i] == b-1.
 */
std::vector<int> ascendingPositions(const std::vector<double> &values);

/**
 * Rank vector from an ordering: @p orderedThreads lists thread ids from
 * lowest priority to highest; the result maps thread id -> rank where
 * larger is higher priority, offset by @p base.
 */
std::vector<int> ranksFromOrder(const std::vector<ThreadId> &orderedThreads,
                                int numThreads, int base);

} // namespace tcm::sched
