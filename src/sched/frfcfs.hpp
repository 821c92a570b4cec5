/**
 * @file
 * FR-FCFS: first-ready, first-come-first-serve (Rixner et al., ISCA-27).
 */

#pragma once

#include "sched/scheduler.hpp"

namespace tcm::sched {

/**
 * The thread-unaware baseline every modern controller descends from:
 * row-buffer-hit requests first, then oldest first. Expressed in the
 * controller's fixed prioritization engine as "no thread ranking at all".
 */
class FrFcfs : public SchedulerPolicy
{
  public:
    const char *name() const override { return "FR-FCFS"; }
};

} // namespace tcm::sched
