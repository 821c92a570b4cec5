#include "sched/fqm.hpp"

#include <algorithm>

namespace tcm::sched {

Fqm::Fqm(const FqmParams &params) : params_(params)
{
    nextUpdateAt_ = params_.updatePeriod;
}

void
Fqm::configure(const Wiring &wiring)
{
    SchedulerPolicy::configure(wiring);
    vtime_.assign(numThreads_, 0.0);
    outstanding_.assign(numThreads_, 0);
    std::vector<int> rank(numThreads_);
    for (ThreadId t = 0; t < numThreads_; ++t)
        rank[t] = numThreads_ - 1 - t; // deterministic initial order
    setRanks(rank);
}

void
Fqm::onArrival(const Request &req, Cycle)
{
    if (!req.isWrite)
        ++outstanding_[req.thread];
}

void
Fqm::onDepart(const Request &req, Cycle)
{
    if (!req.isWrite)
        --outstanding_[req.thread];
}

void
Fqm::onCommand(const Request &req, dram::CommandKind, Cycle,
               Cycle occupancy)
{
    vtime_[req.thread] +=
        static_cast<double>(occupancy) / weights_[req.thread];
}

void
Fqm::tick(Cycle now)
{
    if (now < nextUpdateAt_)
        return;
    nextUpdateAt_ = now + params_.updatePeriod;

    // Idle catch-up: clamp sleepers to the busy minimum.
    double min_active = -1.0;
    for (ThreadId t = 0; t < numThreads_; ++t)
        if (outstanding_[t] > 0 &&
            (min_active < 0.0 || vtime_[t] < min_active))
            min_active = vtime_[t];
    if (min_active > 0.0)
        for (ThreadId t = 0; t < numThreads_; ++t)
            if (outstanding_[t] == 0)
                vtime_[t] = std::max(vtime_[t], min_active);

    // Smallest virtual time -> highest rank.
    std::vector<int> rank = ascendingPositions(vtime_);
    for (int &r : rank)
        r = numThreads_ - 1 - r;
    setRanks(rank);
}

} // namespace tcm::sched
