#include "mem/controller.hpp"

#include <algorithm>

#include "prof/profiler.hpp"
#include "sched/tcm/monitor.hpp"
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

void
MemoryController::observe(std::vector<dram::CommandObserver *> commands,
                          sched::ThreadBankMonitor *probe,
                          telemetry::TelemetrySink *telemetry,
                          prof::ControllerShard *profile)
{
    channel_.observe(std::move(commands));
    probe_ = probe;
    telemetry_ = telemetry;
    prof_ = profile;
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
MemoryController::refreshPolicyCache()
{
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

    // Rebuild the static key halves for every queued request. Rank and
    // marked bits only move with the rank epoch (PAR-BS bumps it
    // whenever it flips marked bits), so between rebuilds the keys
    // stamped here — and at admit time for new arrivals — stay exact.
    stampKeys(queue_.readLane(), 0);
    stampKeys(queue_.writeLane(), 0);
}

void
MemoryController::stampKeys(RequestLane &lane, std::size_t from)
{
    // Key layout (descending priority, Algorithm 3 generalized):
    //   bit 63     over-age escalation          (dynamic, set per scan)
    //   bit 62     batch bit (PAR-BS)
    //   bit 61     row hit when rowHitAboveRank (dynamic, set per scan)
    //   bits 29-60 rank, biased by 2^31, so every int rank fits
    //   bit 28     row hit otherwise            (dynamic, set per scan)
    // keyLo is ~arrivedAt (older is larger); exact ties fall back to an
    // explicit seq compare in the scan.
    const std::vector<Request> &reqs = lane.requests();
    std::uint64_t *keyHi = lane.keyHi();
    for (std::size_t i = from; i < reqs.size(); ++i) {
        const std::uint32_t biased =
            static_cast<std::uint32_t>(cachedRank(reqs[i].thread)) +
            (std::uint32_t{1} << 31);
        keyHi[i] = std::uint64_t{biased} << 29 |
                   std::uint64_t{reqs[i].marked} << 62;
    }
}

void
MemoryController::maybeAutoPrecharge(const Request &served)
{
    if (params_.pagePolicy != PagePolicy::Closed)
        return;
    // Smart-closed: keep the row open if another queued request would
    // hit it.
    if (anyQueued([&](BankId bank, RowId row) {
            return bank == served.bank && row == served.row;
        }))
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
        if (channel_.bank(b).precharged() ||
            anyQueued([b](BankId bank, RowId) { return bank == b; }))
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
MemoryController::tryIssue(RequestLane &lane, prof::ControllerShard *shard,
                           Cycle now, Cycle &nextPossible)
{
    prof::ScopedPhase profScan(shard ? &shard->phases : nullptr,
                               prof::Phase::ReadScan);
    const std::size_t n = lane.size();
    if (n == 0)
        return false;

    const std::vector<Request> &reqs = lane.requests();
    const BankId *bank = lane.bank();
    const RowId *row = lane.row();
    const Cycle *arrivedAt = lane.arrivedAt();
    const std::uint64_t *keyHi = lane.keyHi();
    const RowId *openRow = openRowScratch_.data();

    // agingOn folds the "no aging" and "nothing can be aged yet" cases:
    // arrivedAt + agingCache_ <= now has no solution while now is below
    // the threshold itself.
    const bool agingOn = agingCache_ != kCycleNever && now >= agingCache_;
    const Cycle agedCutoff = agingOn ? now - agingCache_ : 0;
    const std::uint64_t rowHitMask =
        useRowHitCache_
            ? std::uint64_t{1} << (rowHitAboveRankCache_ ? 61 : 28)
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
                (lo < bestLo || (lo == bestLo && reqs[i].seq > bestSeq))) {
                ++skipped;
                continue;
            }
        }
        CommandKind cmd = nextCommand(reqs[i]);
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
        bestSeq = reqs[i].seq;
    }
    if (shard) {
        ++shard->scan.soaScans;
        shard->scan.readsExamined += n - skipped;
        shard->scan.dominanceSkipped += skipped;
    }
    if (best < 0)
        return false;
    issueSelected(lane, static_cast<std::size_t>(best), bestCmd, now);
    return true;
}

void
MemoryController::issueSelected(RequestLane &lane, std::size_t best,
                                CommandKind cmd, Cycle now)
{
    Request req = lane.requests()[best]; // copy: removal invalidates it
    dram::IssueResult res = channel_.issue(cmd, req.bank, req.row, now);
    stats_.bankBusyCycles += res.occupancy;
    rankLastActiveAt_[channel_.rankOf(req.bank)] = now;
    if (probe_)
        probe_->addService(req.thread, res.occupancy);
    sched_->onCommand(req, cmd, now, res.occupancy);

    switch (cmd) {
      case CommandKind::Activate:
        ++stats_.activates;
        ++stats_.rowMisses;
        lane.requests()[best].sawActivate = true;
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
        if (telemetry_)
            telemetry_->recordLifecycle(
                req.thread, now - req.arrivedAt,
                res.dataEnd + timing_->mcToCpuDelay - now);
        lane.remove(best);
        // Departure is stamped at the end of the data burst: a request
        // is "outstanding" (Table 2's load counters) until serviced, not
        // merely until its column command issues.
        if (probe_)
            probe_->onDepart(req, res.dataEnd);
        sched_->onDepart(req, res.dataEnd);
        maybeAutoPrecharge(req);
        break;
      case CommandKind::Write:
        ++stats_.writesServiced;
        if (!req.sawActivate)
            ++stats_.rowHits;
        lane.remove(best);
        if (probe_)
            probe_->onDepart(req, res.dataEnd);
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
        RequestLane &reads = queue_.readLane();
        RequestLane &writes = queue_.writeLane();
        const std::size_t oldReads = reads.size();
        const std::size_t oldWrites = writes.size();
        const std::vector<Request> &arrived = queue_.admitArrivals(now);
        if (!arrived.empty()) {
            // The just-admitted requests occupy each lane's tail; stamp
            // their static key halves with the same cached knobs the
            // queued keys were built from.
            stampKeys(reads, oldReads);
            stampKeys(writes, oldWrites);
            for (const Request &req : arrived) {
                if (probe_)
                    probe_->onArrival(req, now);
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

    refreshPolicyCache();

    // Both scans compare against one open-row snapshot: bank state
    // cannot change between them, because an issue ends the tick.
    if (!queue_.reads().empty() || !queue_.writes().empty())
        for (int b = 0; b < channel_.numBanks(); ++b)
            openRowScratch_[b] = channel_.bank(b).openRow();

    if (drainingWrites_) {
        if (tryIssue(queue_.writeLane(), nullptr, now, next_possible)) {
            nextTryAt_ = now + timing_->tCK;
            return;
        }
        // Opportunistic drains still make progress on reads if no write
        // can issue this cycle (keeps the bus utilized); Strict reserves
        // the whole latched drain for writes.
        if (params_.writeDrain.mode == WriteDrainMode::Opportunistic &&
            tryIssue(queue_.readLane(), prof_, now, next_possible)) {
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

    if (tryIssue(queue_.readLane(), prof_, now, next_possible)) {
        nextTryAt_ = now + timing_->tCK;
        return;
    }
    // Opportunistic write issue when the read stream cannot use the slot.
    if (tryIssue(queue_.writeLane(), nullptr, now, next_possible)) {
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
            if (!channel_.bank(b).precharged() &&
                !anyQueued([b](BankId bank, RowId) { return bank == b; }))
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
