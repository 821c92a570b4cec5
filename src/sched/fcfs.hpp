/**
 * @file
 * Pure FCFS: oldest request first, ignoring row-buffer state.
 */

#pragma once

#include "sched/scheduler.hpp"

namespace tcm::sched {

/**
 * Strict arrival-order service. Not evaluated in the paper's headline
 * results but useful as the locality-oblivious lower bound in tests and
 * ablations.
 */
class Fcfs : public SchedulerPolicy
{
  public:
    const char *name() const override { return "FCFS"; }

    bool useRowHit() const override { return false; }
};

} // namespace tcm::sched
