/**
 * @file
 * ATLAS: Adaptive per-Thread Least-Attained-Service scheduling
 * (Kim et al., HPCA-16). The paper's best-throughput baseline.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "sched/scheduler.hpp"

namespace tcm::sched {

/** ATLAS configuration (paper Section 6 defaults). */
struct AtlasParams
{
    Cycle quantum = 10'000'000;    //!< QuantumLength
    double historyWeight = 0.875;  //!< exponential history weight (alpha)
    Cycle agingThreshold = 100'000; //!< over-age requests escalate (T)
};

/**
 * Every quantum, each thread's attained service (bank-busy cycles
 * consumed on its behalf) folds into an exponentially weighted total:
 *
 *     TotalAS_i = alpha * TotalAS_i + (1 - alpha) * AS_i
 *
 * Threads are then ranked by ascending TotalAS — the thread that has
 * attained the least service is ranked highest, so light threads race
 * ahead (high throughput) while heavy threads sink to the bottom and
 * risk starvation (ATLAS's documented unfairness, visible in Figure 4).
 * Requests older than the aging threshold escalate above all ranking.
 *
 * Thread weights are honored by scaling attained service down by the
 * weight, making heavy-weight threads look under-served.
 */
class Atlas : public SchedulerPolicy
{
  public:
    explicit Atlas(const AtlasParams &params);

    const char *name() const override { return "ATLAS"; }

    void configure(const Wiring &wiring) override;

    void onCommand(const Request &req, dram::CommandKind kind, Cycle now,
                   Cycle occupancy) override;
    void tick(Cycle now) override;

    /** Only timed event: the next quantum boundary. */
    Cycle nextEventAt(Cycle) const override { return nextQuantumAt_; }

    Cycle agingThreshold() const override { return params_.agingThreshold; }

    const std::vector<double> &totalAttainedService() const { return totalAs_; }

    const AtlasParams &params() const { return params_; }

  private:
    AtlasParams params_;
    std::vector<double> quantumAs_;
    std::vector<double> totalAs_;
    Cycle nextQuantumAt_ = 0;
};

} // namespace tcm::sched
