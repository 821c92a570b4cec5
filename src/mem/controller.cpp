#include "mem/controller.hpp"

#include <algorithm>

#include "prof/profiler.hpp"
#include "telemetry/sink.hpp"

namespace tcm::mem {

using dram::CommandKind;

MemoryController::MemoryController(ChannelId id,
                                   const dram::TimingParams &timing,
                                   const ControllerParams &params,
                                   SchedulerPolicy &sched)
    : id_(id),
      timing_(&timing),
      params_(params),
      sched_(&sched),
      channel_(timing, id),
      queue_(params.readQueueCap, params.writeQueueCap)
{
    // Stagger per-rank refreshes across the tREFI window, as real
    // controllers do, so at most one rank is unavailable at a time.
    refreshDueAt_.resize(timing.ranksPerChannel);
    for (int r = 0; r < timing.ranksPerChannel; ++r) {
        refreshDueAt_[r] =
            timing.refreshEnabled
                ? timing.tREFI + r * (timing.tREFI / timing.ranksPerChannel)
                : kCycleNever;
    }
    rankLastActiveAt_.resize(timing.ranksPerChannel, 0);
    openRowScratch_.resize(timing.banksPerChannel, kNoRow);
}

void
MemoryController::submitRead(ThreadId thread, std::uint64_t missId,
                             BankId bank, RowId row, ColId col, Cycle now)
{
    Request req;
    req.seq = nextSeq_++;
    req.thread = thread;
    req.isWrite = false;
    req.channel = id_;
    req.bank = bank;
    req.row = row;
    req.col = col;
    req.issuedAt = now;
    req.arrivedAt = now + timing_->cpuToMcDelay;
    req.missId = missId;
    maxThreadSeen_ = std::max(maxThreadSeen_, thread);
    queue_.addInFlight(req);
}

void
MemoryController::submitWrite(ThreadId thread, BankId bank, RowId row,
                              ColId col, Cycle now)
{
    Request req;
    req.seq = nextSeq_++;
    req.thread = thread;
    req.isWrite = true;
    req.channel = id_;
    req.bank = bank;
    req.row = row;
    req.col = col;
    req.issuedAt = now;
    req.arrivedAt = now + timing_->cpuToMcDelay;
    maxThreadSeen_ = std::max(maxThreadSeen_, thread);
    queue_.addInFlight(req);
}

CommandKind
MemoryController::nextCommand(const Request &req) const
{
    const dram::Bank &bank = channel_.bank(req.bank);
    if (bank.precharged())
        return CommandKind::Activate;
    if (bank.openRow() == req.row)
        return req.isWrite ? CommandKind::Write : CommandKind::Read;
    return CommandKind::Precharge;
}

void
MemoryController::refreshPolicyCache(Cycle now)
{
    (void)now;
    // Ranks only move when the policy says so (rank epoch); between
    // bumps the cached vector is exact, so re-querying rankOf for every
    // thread on every scan would be pure waste. A cache smaller than
    // the thread population (a new thread appeared since the build) is
    // also rebuilt, since cachedRank's out-of-range fallback is the
    // virtual call this cache exists to avoid.
    const std::uint64_t epoch = sched_->rankEpoch();
    const std::size_t want = static_cast<std::size_t>(maxThreadSeen_) + 1;
    if (epoch == policyCacheEpoch_ && rankCache_.size() >= want)
        return;
    policyCacheEpoch_ = epoch;
    rankCache_.resize(want);
    for (ThreadId t = 0; t <= maxThreadSeen_; ++t)
        rankCache_[t] = sched_->rankOf(id_, t);
    agingCache_ = sched_->agingThreshold();
    rowHitAboveRankCache_ = sched_->rowHitAboveRank();
    useRowHitCache_ = sched_->useRowHit();

    // Rebuild the static key halves for every queued read. Rank and
    // marked bits only move with the rank epoch (PAR-BS bumps it
    // whenever it flips marked bits), so between rebuilds the keys
    // stamped here — and at admit time for new arrivals — stay exact.
    soaRankOk_ = true;
    const std::vector<Request> &reads = queue_.reads();
    std::vector<std::uint64_t> &keyHi = queue_.readKeyHi();
    for (std::size_t i = 0; i < reads.size(); ++i)
        keyHi[i] = packedKeyHi(reads[i].thread, reads[i].marked);
}

std::uint64_t
MemoryController::packedKeyHi(ThreadId thread, bool marked)
{
    // Key layout (descending priority, mirrors higherPriority):
    //   bit 63     over-age escalation        (dynamic, set per scan)
    //   bit 62     batch bit (PAR-BS)
    //   bit 61     row hit when rowHitAboveRank (dynamic, set per scan)
    //   bits 45-60 rank, biased by 32768
    //   bit 44     row hit otherwise          (dynamic, set per scan)
    // keyLo is ~arrivedAt (older is larger); exact ties fall back to an
    // explicit seq compare in the scan.
    const int rank = cachedRank(thread);
    if (rank < -32768 || rank > 32767)
        soaRankOk_ = false; // until the next rebuild re-checks
    std::uint64_t hi = static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(rank + 32768) & 0xFFFFu)
                       << 45;
    if (marked)
        hi |= std::uint64_t{1} << 62;
    return hi;
}

bool
MemoryController::higherPriority(const Request &a, const Request &b,
                                 Cycle now) const
{
    // Tier 1: over-age escalation (ATLAS starvation threshold).
    if (agingCache_ != kCycleNever) {
        bool aOld = a.arrivedAt + agingCache_ <= now;
        bool bOld = b.arrivedAt + agingCache_ <= now;
        if (aOld != bOld)
            return aOld;
    }

    // Tier 2: batch bit (PAR-BS).
    if (a.marked != b.marked)
        return a.marked;

    int aRank = cachedRank(a.thread);
    int bRank = cachedRank(b.thread);
    bool aHit = channel_.bank(a.bank).openRow() == a.row;
    bool bHit = channel_.bank(b.bank).openRow() == b.row;
    if (!useRowHitCache_) {
        aHit = false;
        bHit = false;
    }

    if (rowHitAboveRankCache_) {
        if (aHit != bHit)
            return aHit;
        if (aRank != bRank)
            return aRank > bRank;
    } else {
        if (aRank != bRank)
            return aRank > bRank;
        if (aHit != bHit)
            return aHit;
    }

    // Oldest first; seq breaks exact ties deterministically.
    if (a.arrivedAt != b.arrivedAt)
        return a.arrivedAt < b.arrivedAt;
    return a.seq < b.seq;
}

void
MemoryController::maybeAutoPrecharge(const Request &served)
{
    if (params_.pagePolicy != PagePolicy::Closed)
        return;
    // Smart-closed: keep the row open if another queued request would
    // hit it.
    for (const Request &r : queue_.reads())
        if (r.bank == served.bank && r.row == served.row)
            return;
    for (const Request &r : queue_.writes())
        if (r.bank == served.bank && r.row == served.row)
            return;
    channel_.autoPrecharge(served.bank);
    ++stats_.precharges;
}

bool
MemoryController::refreshEngine(Cycle now)
{
    const int banks_per_rank = timing_->banksPerRank();
    bool pending = false;
    for (int r = 0; r < channel_.numRanks(); ++r) {
        if (now < refreshDueAt_[r])
            continue;
        pending = true;
        BankId base = static_cast<BankId>(r * banks_per_rank);
        // A powered-down rank cannot accept a refresh: power it up first
        // (tCKE permitting) and keep holding the command slot.
        if (channel_.rankPoweredDown(r)) {
            if (channel_.canIssue(CommandKind::PowerUp, base, now)) {
                channel_.issue(CommandKind::PowerUp, base, kNoRow, now);
                ++stats_.powerUps;
            }
            return true;
        }
        if (channel_.canIssue(CommandKind::Refresh, base, now)) {
            channel_.issue(CommandKind::Refresh, base, kNoRow, now);
            ++stats_.refreshes;
            refreshDueAt_[r] += timing_->tREFI;
            rankLastActiveAt_[r] = now;
            return true;
        }
        // Work toward a rank-precharged state; one PRE per cycle.
        if (channel_.cmdBusFree(now)) {
            for (BankId b = base; b < base + banks_per_rank; ++b) {
                if (channel_.canIssue(CommandKind::Precharge, b, now)) {
                    channel_.issue(CommandKind::Precharge, b, kNoRow, now);
                    ++stats_.precharges;
                    return true;
                }
            }
        }
    }
    // While a refresh is owed, the command slot is reserved for it.
    return pending;
}

bool
MemoryController::rankHasQueuedWork(int rank) const
{
    for (const Request &r : queue_.reads())
        if (channel_.rankOf(r.bank) == rank)
            return true;
    for (const Request &r : queue_.writes())
        if (channel_.rankOf(r.bank) == rank)
            return true;
    return false;
}

bool
MemoryController::powerManagement(Cycle now)
{
    const int banks_per_rank = timing_->banksPerRank();
    for (int r = 0; r < channel_.numRanks(); ++r) {
        BankId base = static_cast<BankId>(r * banks_per_rank);
        if (channel_.rankPoweredDown(r)) {
            // Wake the rank as soon as work is queued for it (refresh
            // wake-ups are the refresh engine's job).
            if (rankHasQueuedWork(r) &&
                channel_.canIssue(CommandKind::PowerUp, base, now)) {
                channel_.issue(CommandKind::PowerUp, base, kNoRow, now);
                ++stats_.powerUps;
                rankLastActiveAt_[r] = now;
                return true;
            }
            continue;
        }
        if (now < rankLastActiveAt_[r] + params_.powerDownIdleCycles ||
            rankHasQueuedWork(r))
            continue;
        // Idle long enough: close open banks (one per cycle), then enter
        // power-down. These precharges intentionally do not refresh the
        // idle stamp, or each would push the entry out by a full
        // threshold.
        if (channel_.canIssue(CommandKind::PowerDown, base, now)) {
            channel_.issue(CommandKind::PowerDown, base, kNoRow, now);
            ++stats_.powerDowns;
            return true;
        }
        if (channel_.cmdBusFree(now)) {
            for (BankId b = base; b < base + banks_per_rank; ++b) {
                if (channel_.canIssue(CommandKind::Precharge, b, now)) {
                    channel_.issue(CommandKind::Precharge, b, kNoRow, now);
                    ++stats_.precharges;
                    return true;
                }
            }
        }
    }
    return false;
}

bool
MemoryController::trySpeculativePrecharge(Cycle now, Cycle &nextPossible)
{
    // Close open banks that no queued request targets; demand precharges
    // (row conflicts) already belong to the scheduling scans.
    for (int b = 0; b < channel_.numBanks(); ++b) {
        if (channel_.bank(b).precharged())
            continue;
        bool wanted = false;
        for (const Request &r : queue_.reads())
            if (r.bank == b) {
                wanted = true;
                break;
            }
        if (!wanted)
            for (const Request &r : queue_.writes())
                if (r.bank == b) {
                    wanted = true;
                    break;
                }
        if (wanted)
            continue;
        if (channel_.canIssue(CommandKind::Precharge, b, now)) {
            channel_.issue(CommandKind::Precharge, b, kNoRow, now);
            ++stats_.precharges;
            ++stats_.speculativePrecharges;
            return true;
        }
        nextPossible = std::min(
            nextPossible, channel_.earliestIssue(CommandKind::Precharge, b));
    }
    return false;
}

bool
MemoryController::tryIssue(std::vector<Request> &candidates, Cycle now,
                           Cycle &nextPossible)
{
    int best = -1;
    CommandKind bestCmd = CommandKind::Read;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const Request &req = candidates[i];
        CommandKind cmd = nextCommand(req);
        if (!channel_.canIssue(cmd, req.bank, now)) {
            nextPossible = std::min(
                nextPossible, channel_.earliestIssue(cmd, req.bank));
            continue;
        }
        if (best < 0 || higherPriority(req, candidates[best], now)) {
            best = static_cast<int>(i);
            bestCmd = cmd;
        }
    }
    if (best < 0)
        return false;
    issueSelected(candidates, static_cast<std::size_t>(best), bestCmd, now);
    return true;
}

bool
MemoryController::tryIssueReads(Cycle now, Cycle &nextPossible)
{
    prof::ScopedPhase profScan(prof_ ? &prof_->phases : nullptr,
                               prof::Phase::ReadScan);
    std::vector<Request> &reads = queue_.reads();
    if (!soaRankOk_) {
        if (prof_)
            ++prof_->scan.fallbackScans;
        return tryIssue(reads, now, nextPossible);
    }
    const std::size_t n = reads.size();
    if (n == 0)
        return false;

    const BankId *bank = queue_.readBank().data();
    const RowId *row = queue_.readRow().data();
    const Cycle *arrivedAt = queue_.readArrivedAt().data();
    const std::uint64_t *keyHi = queue_.readKeyHi().data();

    // Open-row snapshot: one load per bank up front instead of a Bank
    // dereference per candidate (bank state cannot change mid-scan).
    const int nb = channel_.numBanks();
    for (int b = 0; b < nb; ++b)
        openRowScratch_[b] = channel_.bank(b).openRow();
    const RowId *openRow = openRowScratch_.data();

    // agingOn folds the "no aging" and "nothing can be aged yet" cases:
    // arrivedAt + agingCache_ <= now has no solution while now is below
    // the threshold itself.
    const bool agingOn = agingCache_ != kCycleNever && now >= agingCache_;
    const Cycle agedCutoff = agingOn ? now - agingCache_ : 0;
    const std::uint64_t rowHitMask =
        useRowHitCache_
            ? std::uint64_t{1} << (rowHitAboveRankCache_ ? 61 : 44)
            : 0;

    int best = -1;
    CommandKind bestCmd = CommandKind::Read;
    std::uint64_t bestHi = 0;
    std::uint64_t bestLo = 0;
    std::uint64_t bestSeq = 0;
    std::uint64_t skipped = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t hi = keyHi[i];
        hi |= static_cast<std::uint64_t>(agingOn && arrivedAt[i] <= agedCutoff)
              << 63;
        if (openRow[bank[i]] == row[i])
            hi |= rowHitMask;
        const std::uint64_t lo = ~arrivedAt[i];
        if (best >= 0) {
            // Dominance skip: a candidate whose key loses to the best
            // issuable one found so far cannot win the scan, so the
            // (much costlier) canIssue probe is unnecessary.
            if (hi < bestHi) {
                ++skipped;
                continue;
            }
            if (hi == bestHi &&
                (lo < bestLo || (lo == bestLo && reads[i].seq > bestSeq))) {
                ++skipped;
                continue;
            }
        }
        CommandKind cmd = nextCommand(reads[i]);
        if (!channel_.canIssue(cmd, bank[i], now)) {
            // nextPossible is only trusted when no command issues this
            // cycle — and then best stayed negative, no candidate was
            // dominance-skipped, and this accumulation is complete.
            nextPossible =
                std::min(nextPossible, channel_.earliestIssue(cmd, bank[i]));
            continue;
        }
        best = static_cast<int>(i);
        bestCmd = cmd;
        bestHi = hi;
        bestLo = lo;
        bestSeq = reads[i].seq;
    }
    if (prof_) {
        ++prof_->scan.soaScans;
        prof_->scan.readsExamined += n - skipped;
        prof_->scan.dominanceSkipped += skipped;
    }
    if (best < 0)
        return false;
    issueSelected(reads, static_cast<std::size_t>(best), bestCmd, now);
    return true;
}

void
MemoryController::issueSelected(std::vector<Request> &candidates,
                                std::size_t best, CommandKind cmd, Cycle now)
{
    Request req = candidates[best]; // copy: removal invalidates references
    dram::IssueResult res = channel_.issue(cmd, req.bank, req.row, now);
    stats_.bankBusyCycles += res.occupancy;
    rankLastActiveAt_[channel_.rankOf(req.bank)] = now;
    sched_->onCommand(req, cmd, now, res.occupancy);

    switch (cmd) {
      case CommandKind::Activate:
        ++stats_.activates;
        ++stats_.rowMisses;
        candidates[best].sawActivate = true;
        break;
      case CommandKind::Precharge:
        ++stats_.precharges;
        break;
      case CommandKind::Read:
        ++stats_.readsServiced;
        if (!req.sawActivate)
            ++stats_.rowHits;
        completions_.push_back(Completion{
            req.thread, req.missId, res.dataEnd + timing_->mcToCpuDelay});
        latency_.record(req.thread,
                        res.dataEnd + timing_->mcToCpuDelay - req.issuedAt);
        if (lifecycle_)
            lifecycle_->recordLifecycle(
                req.thread, now - req.arrivedAt,
                res.dataEnd + timing_->mcToCpuDelay - now);
        queue_.removeRead(best);
        // Departure is stamped at the end of the data burst: a request
        // is "outstanding" (Table 2's load counters) until serviced, not
        // merely until its column command issues.
        sched_->onDepart(req, res.dataEnd);
        maybeAutoPrecharge(req);
        break;
      case CommandKind::Write:
        ++stats_.writesServiced;
        if (!req.sawActivate)
            ++stats_.rowHits;
        queue_.removeWrite(best);
        sched_->onDepart(req, res.dataEnd);
        maybeAutoPrecharge(req);
        break;
      case CommandKind::Refresh:
      case CommandKind::PowerDown:
      case CommandKind::PowerUp:
        break; // issued by the refresh/power engines, never selected here
    }
}

void
MemoryController::tick(Cycle now)
{
    prof::ScopedPhase profTick(prof_ ? &prof_->phases : nullptr,
                               prof::Phase::CtrlTick);
    {
        const std::vector<Request> &arrived = queue_.admitArrivals(now);
        if (!arrived.empty()) {
            // The just-admitted reads occupy the queue tail in arrival
            // order; stamp their static key halves with the same cached
            // knobs the queued keys were built from.
            std::vector<std::uint64_t> &keyHi = queue_.readKeyHi();
            std::size_t newReads = 0;
            for (const Request &req : arrived)
                newReads += req.isWrite ? 0u : 1u;
            std::size_t slot = keyHi.size() - newReads;
            for (const Request &req : arrived) {
                if (!req.isWrite)
                    keyHi[slot++] = packedKeyHi(req.thread, req.marked);
                sched_->onArrival(req, now);
            }
            nextTryAt_ = now; // a fresh request may be issuable at once
        }
    }

    if (timing_->refreshEnabled && refreshEngine(now)) {
        nextTryAt_ = now; // refresh touched channel state
        return;
    }

    if (params_.powerDownIdleCycles > 0 && powerManagement(now)) {
        nextTryAt_ = now; // power state moved; rescan next cycle
        return;
    }

    if (params_.idleSkip && now < nextTryAt_)
        return;

    if (!channel_.cmdBusFree(now))
        return;

    // Decide whether this cycle serves the read stream or drains writes.
    if (drainingWrites_) {
        if (queue_.writes().size() <=
            static_cast<std::size_t>(params_.writeDrain.lowWatermark)) {
            drainingWrites_ = false;
        }
    } else if (queue_.writes().size() >=
               static_cast<std::size_t>(params_.writeDrain.highWatermark)) {
        drainingWrites_ = true;
        ++stats_.writeDrains;
    }

    // Lower bound on the next cycle a command could issue, refined by
    // the scans below; only trusted when no command issues this cycle.
    Cycle next_possible = kCycleNever;

    refreshPolicyCache(now);

    if (drainingWrites_) {
        if (tryIssue(queue_.writes(), now, next_possible)) {
            nextTryAt_ = now + timing_->tCK;
            return;
        }
        // Opportunistic drains still make progress on reads if no write
        // can issue this cycle (keeps the bus utilized); Strict reserves
        // the whole latched drain for writes.
        if (params_.writeDrain.mode == WriteDrainMode::Opportunistic &&
            tryIssueReads(now, next_possible)) {
            nextTryAt_ = now + timing_->tCK;
            return;
        }
        if (params_.speculativePrecharge &&
            trySpeculativePrecharge(now, next_possible)) {
            nextTryAt_ = now + timing_->tCK;
            return;
        }
        nextTryAt_ = next_possible;
        return;
    }

    if (tryIssueReads(now, next_possible)) {
        nextTryAt_ = now + timing_->tCK;
        return;
    }
    // Opportunistic write issue when the read stream cannot use the slot.
    if (tryIssue(queue_.writes(), now, next_possible)) {
        nextTryAt_ = now + timing_->tCK;
        return;
    }
    if (params_.speculativePrecharge &&
        trySpeculativePrecharge(now, next_possible)) {
        nextTryAt_ = now + timing_->tCK;
        return;
    }
    nextTryAt_ = next_possible;
}

Cycle
MemoryController::nextEventAt(Cycle now) const
{
    // Next transported request becomes visible (admitArrivals + hooks).
    Cycle horizon = queue_.nextArrivalAt();

    if (timing_->refreshEnabled) {
        for (Cycle due : refreshDueAt_) {
            // While a refresh is owed the engine owns the command slot
            // and issues precharges/refreshes on its own timing; don't
            // predict it, execute every cycle until it retires the owed
            // refresh (short: bounded by tRP + tRFC).
            if (due <= now)
                return now;
            horizon = std::min(horizon, due);
        }
    }

    // Next scheduling scan that could issue a command. nextTryAt_ is a
    // correct lower bound on the next legal issue time in both idleSkip
    // modes (it is maintained identically; idleSkip only selects
    // whether the per-cycle tick consults it), and no command can leave
    // before the command bus frees. Scans before that bound are no-ops:
    // priorities (ranks, marked bits, aging) affect which request wins
    // a scan, never whether a command can legally issue.
    if (!queue_.reads().empty() || !queue_.writes().empty())
        horizon = std::min(horizon,
                           std::max(nextTryAt_, channel_.cmdBusFreeAt()));

    // A pending speculative precharge is scan-independent work: it can
    // issue even with empty queues (which the scan horizon above does
    // not cover), so fold the earliest eligible one.
    if (params_.speculativePrecharge) {
        for (int b = 0; b < channel_.numBanks(); ++b) {
            if (channel_.bank(b).precharged())
                continue;
            bool wanted = false;
            for (const Request &r : queue_.reads())
                if (r.bank == b) {
                    wanted = true;
                    break;
                }
            if (!wanted)
                for (const Request &r : queue_.writes())
                    if (r.bank == b) {
                        wanted = true;
                        break;
                    }
            if (!wanted)
                horizon = std::min(
                    horizon,
                    channel_.earliestIssue(dram::CommandKind::Precharge, b));
        }
    }

    // Power-management events (powerDownIdleCycles > 0): a pending
    // wake-up, or an idle rank's next precharge/PowerDown step. Skipping
    // past these would shift when PDE/PDX issue and break cross-mode
    // trace identity.
    if (params_.powerDownIdleCycles > 0) {
        const int banks_per_rank = timing_->banksPerRank();
        for (int r = 0; r < channel_.numRanks(); ++r) {
            BankId base = static_cast<BankId>(r * banks_per_rank);
            if (channel_.rankPoweredDown(r)) {
                // Stays down until work arrives (arrival horizon above)
                // or refresh comes due (refresh horizon above); a
                // pending wake-up waits only on tCKE and the bus.
                if (rankHasQueuedWork(r))
                    horizon = std::min(
                        horizon, std::max(channel_.rankPowerUpAllowedAt(r),
                                          channel_.cmdBusFreeAt()));
                continue;
            }
            if (rankHasQueuedWork(r))
                continue;
            Cycle idleAt =
                rankLastActiveAt_[r] + params_.powerDownIdleCycles;
            Cycle step =
                channel_.earliestIssue(dram::CommandKind::PowerDown, base);
            for (BankId b = base; b < base + banks_per_rank; ++b)
                step = std::min(step,
                                channel_.earliestIssue(
                                    dram::CommandKind::Precharge, b));
            if (step != kCycleNever)
                horizon = std::min(horizon, std::max(idleAt, step));
        }
    }

    return std::max(horizon, now);
}

} // namespace tcm::mem
