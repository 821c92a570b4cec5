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
    openRowScratch_.resize(timing.banksPerChannel, kNoRow);
    ready_.resize(static_cast<std::size_t>(timing.banksPerChannel) * 3);
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
    queue_.addInFlight(req);
}

void
MemoryController::observe(std::vector<dram::CommandObserver *> commands,
                          sched::ThreadBankMonitor *probe,
                          telemetry::TelemetrySink *telemetry,
                          prof::Profiler *profile)
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

Cycle
MemoryController::readyAt(CommandKind cmd, BankId bank)
{
    // ACT and PRE share a slot: a bank's state admits exactly one of
    // them, and that state only moves with the channel version.
    const int slot = cmd == CommandKind::Read    ? 1
                     : cmd == CommandKind::Write ? 2
                                                 : 0;
    Readiness &r = ready_[static_cast<std::size_t>(bank) * 3 + slot];
    if (r.version != channel_.version()) {
        r.at = channel_.earliestIssue(cmd, bank);
        r.version = channel_.version();
    }
    return r.at;
}

Cycle
MemoryController::nextIssueAt()
{
    // Every legal issue time is at or after the command bus frees, so a
    // candidate ready then ends the search.
    const Cycle busFree = channel_.cmdBusFreeAt();
    Cycle next = kCycleNever;
    for (const RequestLane *lane : {&queue_.readLane(), &queue_.writeLane()})
        for (const Request &req : lane->requests()) {
            next = std::min(next, readyAt(nextCommand(req), req.bank));
            if (next <= busFree)
                return next;
        }
    return next;
}

void
MemoryController::refreshPolicyCache()
{
    // The rank table only moves through setRanks, which moves the
    // epoch; between moves the knobs and the keys stamped from the
    // table are exact, so re-reading them on every scan would be waste.
    const std::uint64_t epoch = sched_->rankEpoch();
    if (epoch == policyCacheEpoch_)
        return;
    policyCacheEpoch_ = epoch;
    agingCache_ = sched_->agingThreshold();
    rowHitAboveRankCache_ = sched_->rowHitAboveRank();
    useRowHitCache_ = sched_->useRowHit();

    // Rebuild the static key halves for every queued request. Rank and
    // marked bits only move with the rank epoch (PAR-BS publishes its
    // batch ranks whenever it flips marked bits), so between rebuilds
    // the keys stamped here — and at admit time for new arrivals — stay
    // exact.
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
    const std::vector<int> &rank = sched_->ranks(id_);
    std::uint64_t *keyHi = lane.keyHi();
    for (std::size_t i = from; i < reqs.size(); ++i) {
        const std::uint32_t biased =
            static_cast<std::uint32_t>(rank[reqs[i].thread]) +
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
    for (const RequestLane *lane : {&queue_.readLane(), &queue_.writeLane()})
        for (std::size_t i = 0; i < lane->size(); ++i)
            if (lane->bank()[i] == served.bank && lane->row()[i] == served.row)
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
        if (channel_.canIssue(CommandKind::Refresh, base, now)) {
            channel_.issue(CommandKind::Refresh, base, kNoRow, now);
            ++stats_.refreshes;
            refreshDueAt_[r] += timing_->tREFI;
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
MemoryController::tryIssue(RequestLane &lane, prof::Profiler *profile,
                           Cycle now)
{
    const std::size_t n = lane.size();
    if (n == 0)
        return false;
    prof::ScopedPhase profScan(profile ? &profile->phases() : nullptr,
                               prof::Phase::ReadScan);

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
            // (much costlier) timing probe is unnecessary.
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
        if (readyAt(cmd, bank[i]) > now)
            continue;
        best = static_cast<int>(i);
        bestCmd = cmd;
        bestHi = hi;
        bestLo = lo;
        bestSeq = reqs[i].seq;
    }
    if (profile) {
        prof::ScanCounters &scan = profile->scan();
        ++scan.soaScans;
        scan.readsExamined += n - skipped;
        scan.dominanceSkipped += skipped;
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
        break; // issued by the refresh engine, never selected here
    }
}

void
MemoryController::tick(Cycle now)
{
    prof::ScopedPhase profTick(prof_ ? &prof_->phases() : nullptr,
                               prof::Phase::CtrlTick);
    RequestLane &reads = queue_.readLane();
    RequestLane &writes = queue_.writeLane();
    {
        const std::size_t oldReads = reads.size();
        const std::size_t oldWrites = writes.size();
        const std::vector<Request> &arrived = queue_.admitArrivals(now);
        if (!arrived.empty()) {
            // The just-admitted requests occupy each lane's tail; stamp
            // their static key halves from the current rank table (if
            // it moved, the next scan restamps every key first).
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

    refreshPolicyCache();

    // Both scans compare against one open-row snapshot: bank state
    // cannot change between them, because an issue ends the tick.
    if (!queue_.reads().empty() || !queue_.writes().empty())
        for (int b = 0; b < channel_.numBanks(); ++b)
            openRowScratch_[b] = channel_.bank(b).openRow();

    // Reads go first and writes take a slot no read can use; a latched
    // drain swaps the order. Only the read scan is profiled.
    if (drainingWrites_) {
        if (!tryIssue(writes, nullptr, now))
            tryIssue(reads, prof_, now);
    } else if (!tryIssue(reads, prof_, now)) {
        tryIssue(writes, nullptr, now);
    }

    // The next scan worth running is at the next legal issue, with one
    // exception. The drain latch is re-tested only at scans, so a write
    // that left a latched drain at or below the low watermark (only a
    // write issued just now can have) needs the scan one command slot
    // later that unlatches it, as in a controller scanning every cycle.
    const bool unlatchDue =
        drainingWrites_ &&
        writes.size() <=
            static_cast<std::size_t>(params_.writeDrain.lowWatermark);
    nextTryAt_ = unlatchDue ? now + timing_->tCK : nextIssueAt();
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

    // Next scheduling scan that could issue a command. After a scan,
    // nextTryAt_ is the exact next legal issue time (or the unlatching
    // scan, see tick) in both idleSkip modes (it is maintained
    // identically; idleSkip only selects whether the per-cycle tick
    // consults it), and no command can leave before the command bus
    // frees. Scans before that cycle are no-ops: priorities (ranks,
    // marked bits, aging) affect which request wins a scan, never
    // whether a command can legally issue.
    if (!queue_.reads().empty() || !queue_.writes().empty())
        horizon = std::min(horizon,
                           std::max(nextTryAt_, channel_.cmdBusFreeAt()));

    return std::max(horizon, now);
}

} // namespace tcm::mem
