#include "sched/atlas.hpp"

#include "telemetry/sink.hpp"

namespace tcm::sched {

Atlas::Atlas(const AtlasParams &params) : params_(params)
{
    nextQuantumAt_ = params_.quantum;
}

void
Atlas::configure(const Wiring &wiring)
{
    SchedulerPolicy::configure(wiring);
    quantumAs_.assign(numThreads_, 0.0);
    totalAs_.assign(numThreads_, 0.0);
    // Before the first quantum completes there is no service history;
    // seed a deterministic total order (thread id) so the controller's
    // rank tier is well-defined from cycle 0.
    std::vector<int> rank(numThreads_);
    for (ThreadId t = 0; t < numThreads_; ++t)
        rank[t] = numThreads_ - 1 - t;
    setRanks(rank);
}

void
Atlas::onCommand(const Request &req, dram::CommandKind, Cycle,
                 Cycle occupancy)
{
    quantumAs_[req.thread] += static_cast<double>(occupancy);
}

void
Atlas::tick(Cycle now)
{
    if (now < nextQuantumAt_)
        return;
    nextQuantumAt_ = now + params_.quantum;

    double alpha = params_.historyWeight;
    std::vector<double> key(numThreads_);
    for (ThreadId t = 0; t < numThreads_; ++t) {
        totalAs_[t] = alpha * totalAs_[t] +
                      (1.0 - alpha) * quantumAs_[t] / weights_[t];
        quantumAs_[t] = 0.0;
        key[t] = totalAs_[t];
    }

    // Least attained service -> highest rank. ascendingPositions gives the
    // smallest key position 0, so invert.
    std::vector<int> rank = ascendingPositions(key);
    for (int &r : rank)
        r = numThreads_ - 1 - r;
    setRanks(rank);

    if (decisionSink_)
        decide(now, "atlas.rank",
               {{"total_as", telemetry::jsonArray(totalAs_)},
                {"ranks", telemetry::jsonArray(rank)}});
}

} // namespace tcm::sched
