/**
 * @file
 * FRFCFS-CP: the close-page FR-FCFS variant of the USIMM championship
 * baselines.
 */

#pragma once

#include "sched/scheduler.hpp"

namespace tcm::sched {

/**
 * FR-FCFS prioritization over closed-page controllers. The championship
 * baseline precharges a bank as soon as no other queued request targets
 * the open row ("smart" close-page: the last streak hit rides an
 * auto-precharge), trading open-row hit opportunity for a pre-paid tRP
 * on the next conflict — a win for low-locality access streams, a loss
 * for row-streaming ones.
 *
 * The page policy is a *controller construction* property, not a
 * per-cycle knob: the policy requests it via prefersClosedPage() and the
 * simulator builds every controller with PagePolicy::Closed (the PR-2
 * protocol checker audits the auto-precharge riders like any explicit
 * precharge). Everything else is stock FR-FCFS: stateless in time and
 * hook-free, with no timed events.
 */
class CpFrFcfs : public SchedulerPolicy
{
  public:
    const char *name() const override { return "FRFCFS-CP"; }

    bool prefersClosedPage() const override { return true; }
};

} // namespace tcm::sched
