/**
 * @file
 * Thread Cluster Memory scheduling (TCM) — the paper's contribution.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.hpp"
#include "sched/scheduler.hpp"
#include "sched/tcm/clustering.hpp"
#include "sched/tcm/monitor.hpp"
#include "sched/tcm/shuffle.hpp"

namespace tcm::sched {

/** TCM configuration (paper Section 6 defaults, scaled by experiments). */
struct TcmParams
{
    Cycle quantum = 1'000'000;   //!< quantum length in cycles
    Cycle shuffleInterval = 800; //!< cycles between shuffle steps

    /**
     * ClusterThresh numerator: the latency-sensitive cluster receives
     * (numerator / numThreads) of the previous quantum's total bandwidth
     * usage (paper default 4/24 on 24 threads). clusterThreshOverride,
     * when >= 0, sets the fraction directly (for the Figure 6 sweep).
     */
    double clusterThreshNumerator = 4.0;
    double clusterThreshOverride = -1.0;

    /** Min BLP/RBL spread (fraction of max) to use insertion shuffle. */
    double shuffleAlgoThresh = 0.1;

    /** Shuffling algorithm; Dynamic is the full TCM policy. */
    ShuffleMode shuffleMode = ShuffleMode::Dynamic;

    /**
     * The paper's Algorithm 2 pseudocode is ambiguous about rank
     * direction (its prose says nicer threads must be "prioritized more
     * often", while a literal reading of the pseudocode gives the least
     * nice thread the most time at the top). true = resolve in favour of
     * the prose (nicest thread anchors the top half of the rotation);
     * false = literal pseudocode reading. bench_table6_shuffling
     * compares both empirically.
     */
    bool nicestAtTop = true;
};

/**
 * The TCM algorithm:
 *  - every quantum, clusters threads by memory intensity under a
 *    bandwidth-usage budget (Algorithm 1),
 *  - strictly prioritizes the latency-sensitive cluster, ranked by
 *    ascending weight-scaled MPKI,
 *  - within the bandwidth-sensitive cluster, shuffles the priority order
 *    every ShuffleInterval using insertion shuffle over the niceness
 *    ranking, falling back to random shuffle for homogeneous clusters
 *    (ShuffleAlgoThresh), and
 *  - honors OS thread weights by scaling MPKI in the latency cluster and
 *    by weighted shuffling in the bandwidth cluster (Section 3.6).
 *
 * Monitoring (MPKI, shadow-row RBL, sampled BLP, service time) follows
 * Section 3.4; the per-quantum aggregation across controllers models the
 * paper's meta-controller.
 */
class Tcm : public SchedulerPolicy
{
  public:
    explicit Tcm(const TcmParams &params, std::uint64_t seed = 1);

    const char *name() const override { return "TCM"; }

    void configure(const Wiring &wiring) override;

    void onArrival(const Request &req, Cycle now) override;
    void onDepart(const Request &req, Cycle now) override;
    void onCommand(const Request &req, dram::CommandKind kind, Cycle now,
                   Cycle occupancy) override;
    void tick(Cycle now) override;

    /** Timed events: next quantum boundary or shuffle step. */
    Cycle
    nextEventAt(Cycle) const override
    {
        return std::min(nextQuantumAt_, nextShuffleAt_);
    }

    // -- introspection (tests, benches) -------------------------------------

    const std::vector<ThreadId> &latencyCluster() const { return cluster_.latency; }
    const std::vector<ThreadId> &bandwidthCluster() const { return cluster_.bandwidth; }
    const std::vector<double> &lastNiceness() const { return niceness_; }
    const std::vector<double> &lastMpki() const { return mpki_; }

    /** Shuffle algorithm in effect this quantum. */
    ShuffleMode activeShuffleMode() const;

    const TcmParams &params() const { return params_; }

  private:
    void quantumBoundary(Cycle now);
    void publishRanks();

    TcmParams params_;
    Pcg32 rng_;
    ThreadBankMonitor monitor_; //!< global-bank view (meta-controller)

    Cycle nextQuantumAt_ = 0;
    Cycle nextShuffleAt_ = 0;

    // Last boundary's core-counter baselines (for per-quantum MPKI).
    std::vector<std::uint64_t> baseInstructions_;
    std::vector<std::uint64_t> baseMisses_;

    ClusterResult cluster_;
    std::vector<double> mpki_;
    std::vector<double> niceness_;
    std::unique_ptr<ShuffleState> shuffle_;
};

} // namespace tcm::sched
