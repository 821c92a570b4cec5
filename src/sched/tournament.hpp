/**
 * @file
 * Tournament: an online meta-scheduler that races candidate policies
 * and switches the live one at quantum boundaries.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sched/scheduler.hpp"

namespace tcm::sched {

/** Tournament configuration. */
struct TournamentParams
{
    /** Quantum length: candidates are scored and the live policy may
     *  switch only at these boundaries (scaled like TCM's quantum by
     *  SchedulerSpec::scaleToRun). */
    Cycle quantum = 1'000'000;

    /** Score = interval weighted-speedup estimate minus this weight
     *  times the interval maximum-slowdown estimate. */
    double fairnessWeight = 0.5;

    /** After each full exploration rotation (one quantum per
     *  candidate), run the best-scoring candidate for this many quanta
     *  before re-exploring. */
    int exploitQuanta = 6;

    /** New-score weight of the exponential score average. */
    double scoreAlpha = 0.5;
};

/**
 * Runs 2–3 candidate policies as permanent shadows: every observation
 * hook, queue attachment, counter feed, and tick is forwarded to *all*
 * candidates, so each one's internal ranking stays exactly what it
 * would be had it been live all along. Only the live candidate's
 * prioritization knobs (rankOf / agingThreshold / rowHitAboveRank /
 * useRowHit) are exposed to the controllers.
 *
 * At every quantum boundary the elapsed quantum is scored from the
 * per-core counters (the same counter feed the PR-3 telemetry gauges
 * sample): per-thread retired instructions over the quantum,
 * normalized by the best interval that thread has shown so far (an
 * online "alone performance" proxy), give a weighted-speedup estimate;
 * the worst inverse ratio gives a maximum-slowdown estimate; score =
 * ws_est - fairnessWeight * ms_est, folded into an exponential average
 * per candidate. Scheduling of quanta is a deterministic
 * explore/exploit rotation: one quantum per candidate, then
 * exploitQuanta quanta of the argmax (ties: lowest candidate index),
 * then re-explore. Every live-policy change emits a tournament.switch
 * decision event.
 *
 * Fast-path contracts compose from the candidates': nextEventAt is the
 * min over the candidates' and the quantum boundary (a pure timer —
 * core counters are read at the boundary, which is always an executed
 * cycle); syncTo fans out; the tournament's
 * rank epoch advances whenever the live candidate's does or the live
 * candidate itself changes, so controller snapshot caches refresh
 * exactly when the visible knobs may have moved. Candidates must not
 * mutate shared queue state (PAR-BS marks requests even when not live,
 * which would leak into the controller's marked tier), so the factory
 * restricts candidates to non-marking, non-meta policies.
 */
class Tournament : public SchedulerPolicy
{
  public:
    Tournament(std::vector<std::unique_ptr<SchedulerPolicy>> candidates,
               const TournamentParams &params);

    const char *name() const override { return "Tournament"; }

    void configure(int numThreads, int numChannels,
                   int banksPerChannel) override;
    void attachQueue(ChannelId ch, QueueAccess *queue) override;
    void setCoreCounters(
        const std::vector<CoreCounters> *counters) override;
    void setThreadWeights(const std::vector<int> &weights) override;
    void setDecisionSink(telemetry::TelemetrySink *sink) override;

    void onArrival(const Request &req, Cycle now) override;
    void onDepart(const Request &req, Cycle now) override;
    void onCommand(const Request &req, dram::CommandKind kind, Cycle now,
                   Cycle occupancy) override;
    void tick(Cycle now) override;

    Cycle nextEventAt(Cycle now) const override;
    void syncTo(Cycle now) override;
    std::uint64_t rankEpoch() const override { return epoch_; }

    int
    rankOf(ChannelId ch, ThreadId thread) const override
    {
        return live().rankOf(ch, thread);
    }

    Cycle agingThreshold() const override { return live().agingThreshold(); }
    bool rowHitAboveRank() const override { return live().rowHitAboveRank(); }
    bool useRowHit() const override { return live().useRowHit(); }

    /** The currently live candidate (tests/benches). */
    const SchedulerPolicy &live() const { return *candidates_[liveIdx_]; }

    /** Index of the live candidate (tests). */
    int liveIndex() const { return liveIdx_; }

    /** Exponential score average of candidate @p i (tests). */
    double score(int i) const { return scores_[i]; }

    const TournamentParams &params() const { return params_; }

  private:
    /** Fold the live candidate's epoch into ours if it moved. */
    void noteLiveEpoch();

    /** Score the elapsed quantum and pick the next live candidate. */
    void quantumBoundary(Cycle now);

    std::vector<std::unique_ptr<SchedulerPolicy>> candidates_;
    TournamentParams params_;
    std::vector<double> scores_;
    std::vector<std::uint64_t> lastInstructions_; //!< per thread
    std::vector<std::uint64_t> bestInterval_;     //!< per thread
    int liveIdx_ = 0;
    std::uint64_t lastLiveEpoch_ = 0;
    std::uint64_t epoch_ = 1;
    std::uint64_t quantumIdx_ = 0;
    Cycle nextQuantumAt_ = 0;
};

} // namespace tcm::sched
