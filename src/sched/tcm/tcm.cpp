#include "sched/tcm/tcm.hpp"

#include <algorithm>

#include "common/json.hpp"
#include "sched/tcm/niceness.hpp"
#include "telemetry/sink.hpp"

namespace tcm::sched {

Tcm::Tcm(const TcmParams &params, std::uint64_t seed)
    : params_(params), rng_(seed, 0x7c3deadbeef1ULL)
{
    nextQuantumAt_ = 0; // cluster immediately on the first tick
    nextShuffleAt_ = params_.shuffleInterval;
}

void
Tcm::configure(const Wiring &wiring)
{
    SchedulerPolicy::configure(wiring);
    // One logical monitor over all banks in the system: the per-channel
    // counters of Table 2 feed the meta-controller, which reconstructs
    // the system-wide view modelled here directly.
    monitor_.configure(numThreads_, numChannels_ * banksPerChannel_,
                       banksPerChannel_);
    baseInstructions_.assign(numThreads_, 0);
    baseMisses_.assign(numThreads_, 0);
    mpki_.assign(numThreads_, 0.0);
    niceness_.assign(numThreads_, 0.0);
}

void
Tcm::onArrival(const Request &req, Cycle now)
{
    monitor_.onArrival(req, now);
}

void
Tcm::onDepart(const Request &req, Cycle now)
{
    monitor_.onDepart(req, now);
}

void
Tcm::onCommand(const Request &req, dram::CommandKind, Cycle,
               Cycle occupancy)
{
    monitor_.addService(req.thread, occupancy);
}

ShuffleMode
Tcm::activeShuffleMode() const
{
    return shuffle_ ? shuffle_->mode() : ShuffleMode::Random;
}

void
Tcm::quantumBoundary(Cycle now)
{
    // --- Meta-controller aggregation (Section 3.4) -------------------------
    ThreadBankMonitor::Snapshot snap = monitor_.snapshot(now);
    monitor_.reset(now);
    const std::vector<std::uint64_t> &bwUsage = snap.serviceCycles;
    const std::vector<double> &blp = snap.blp;
    const std::vector<double> &rbl = snap.rbl;

    // Per-quantum MPKI from core counters, scaled by thread weight so a
    // heavier latency-sensitive thread ranks higher (Section 3.6).
    std::vector<double> scaledMpki(numThreads_, 0.0);
    for (ThreadId t = 0; t < numThreads_; ++t) {
        std::uint64_t insts = 0, misses = 0;
        if (coreCounters_) {
            const auto &c = (*coreCounters_)[t];
            insts = c.instructions - baseInstructions_[t];
            misses = c.readMisses - baseMisses_[t];
            baseInstructions_[t] = c.instructions;
            baseMisses_[t] = c.readMisses;
        }
        mpki_[t] = 1000.0 * static_cast<double>(misses) /
                   static_cast<double>(std::max<std::uint64_t>(insts, 1));
        scaledMpki[t] = mpki_[t] / weights_[t];
    }

    // --- Clustering (Algorithm 1) ------------------------------------------
    double thresh = params_.clusterThreshOverride >= 0.0
                        ? params_.clusterThreshOverride
                        : params_.clusterThreshNumerator / numThreads_;
    cluster_ = clusterThreads(scaledMpki, bwUsage, thresh);

    // --- Niceness and shuffle-algorithm selection (Section 3.3) ------------
    niceness_ = computeNiceness(blp, rbl, cluster_.bandwidth, numThreads_);

    ShuffleMode mode = params_.shuffleMode;
    if (mode == ShuffleMode::Dynamic) {
        double maxDBlp = 0.0, maxDRbl = 0.0;
        for (ThreadId a : cluster_.bandwidth) {
            for (ThreadId b : cluster_.bandwidth) {
                maxDBlp = std::max(maxDBlp, blp[a] - blp[b]);
                maxDRbl = std::max(maxDRbl, rbl[a] - rbl[b]);
            }
        }
        double totalBanks =
            static_cast<double>(numChannels_) * banksPerChannel_;
        bool heterogeneous =
            maxDBlp > params_.shuffleAlgoThresh * totalBanks &&
            maxDRbl > params_.shuffleAlgoThresh;
        mode = heterogeneous ? ShuffleMode::Insertion : ShuffleMode::Random;
    }

    // Algorithm 2 is expressed over an array whose back is the highest
    // rank and whose sorts order by ascending niceness. The nicest-at-top
    // resolution (see TcmParams::nicestAtTop) runs the same machine in
    // mirrored coordinates: negate niceness and read ranks from the
    // front (rebuildRanks flips the mapping).
    std::vector<double> shuffleKey = niceness_;
    if (params_.nicestAtTop)
        for (double &v : shuffleKey)
            v = -v;

    // Keep the rotation phase across quanta when the cluster membership
    // and algorithm are unchanged; only the niceness values refresh.
    bool sameCluster = shuffle_ && shuffle_->mode() == mode &&
                       shuffle_->order().size() == cluster_.bandwidth.size();
    if (sameCluster) {
        std::vector<ThreadId> sortedOld = shuffle_->order();
        std::vector<ThreadId> sortedNew = cluster_.bandwidth;
        std::sort(sortedOld.begin(), sortedOld.end());
        std::sort(sortedNew.begin(), sortedNew.end());
        sameCluster = sortedOld == sortedNew;
    }
    if (sameCluster) {
        shuffle_->updateNiceness(shuffleKey);
    } else {
        shuffle_ = std::make_unique<ShuffleState>(cluster_.bandwidth,
                                                  shuffleKey, weights_, mode,
                                                  &rng_);
    }
    publishRanks();

    if (decisionSink_)
        decide(now, "tcm.quantum",
               {{"latency_cluster", telemetry::jsonArray(cluster_.latency)},
                {"bandwidth_cluster",
                 telemetry::jsonArray(cluster_.bandwidth)},
                {"mpki", telemetry::jsonArray(mpki_)},
                {"niceness", telemetry::jsonArray(niceness_)},
                {"shuffle_mode", json::quote(shuffleModeName(mode))},
                {"cluster_thresh", telemetry::jsonNumber(thresh)},
                {"ranks", telemetry::jsonArray(ranks(0))}});

    nextQuantumAt_ = now + params_.quantum;
    nextShuffleAt_ = now + params_.shuffleInterval;
}

void
Tcm::publishRanks()
{
    // Bandwidth-sensitive cluster: ranks 0 .. K-1 from the shuffle order
    // (front = lowest priority). Latency-sensitive cluster: ranks K .. N-1,
    // with the lowest-MPKI thread highest (cluster_.latency is sorted by
    // ascending scaled MPKI, so reverse it: last = highest MPKI = lowest
    // latency-cluster rank).
    std::vector<int> rank(numThreads_, 0);
    const std::vector<ThreadId> &order = shuffle_->order();
    const int k = static_cast<int>(order.size());
    for (int i = 0; i < k; ++i)
        rank[order[i]] = params_.nicestAtTop ? k - 1 - i : i;

    int base = static_cast<int>(order.size());
    const std::vector<ThreadId> &lat = cluster_.latency;
    for (std::size_t i = 0; i < lat.size(); ++i) {
        // lat[0] has the lowest MPKI -> highest rank overall.
        rank[lat[i]] = base + static_cast<int>(lat.size() - 1 - i);
    }
    setRanks(rank);
}

void
Tcm::tick(Cycle now)
{
    if (now >= nextQuantumAt_) {
        quantumBoundary(now);
        return;
    }
    if (now >= nextShuffleAt_) {
        if (shuffle_ && shuffle_->order().size() > 1) {
            shuffle_->step();
            publishRanks();
            if (decisionSink_)
                decide(now, "tcm.shuffle",
                       {{"order", telemetry::jsonArray(shuffle_->order())},
                        {"ranks", telemetry::jsonArray(ranks(0))}});
        }
        nextShuffleAt_ += params_.shuffleInterval;
    }
}

} // namespace tcm::sched
