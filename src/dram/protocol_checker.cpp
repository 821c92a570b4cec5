#include "dram/protocol_checker.hpp"

#include <algorithm>
#include <cstdio>

namespace tcm::dram {

namespace {

const char *const kConstraintNames[] = {
    "cmd-bus",       // CmdBusConflict
    "ACT-row-open",  // ActRowOpen
    "tRC",           // Trc
    "tRP",           // Trp
    "tRCD",          // Trcd
    "col-closed-bank", // ColClosedBank
    "col-wrong-row", // ColWrongRow
    "tRAS",          // Tras
    "tRTP",          // Trtp
    "tWR",           // Twr
    "tCCD",          // Tccd
    "tRRD",          // Trrd
    "tFAW",          // Tfaw
    "tWTR",          // Twtr
    "data-bus",      // DataBusConflict
    "PRE-closed-bank", // PreClosedBank
    "REF-row-open",  // RefRowOpen
    "tRFC",          // Trfc
    "tREFI-overdue", // RefreshOverdue
    "tCCD_L",        // TccdL
    "tRRD_L",        // TrrdL
};
static_assert(sizeof(kConstraintNames) / sizeof(kConstraintNames[0]) ==
                  static_cast<std::size_t>(Constraint::Count_),
              "constraint name table out of sync");

std::vector<std::string>
constraintLabels()
{
    std::vector<std::string> labels;
    labels.reserve(static_cast<std::size_t>(Constraint::Count_));
    for (const char *name : kConstraintNames)
        labels.emplace_back(name);
    return labels;
}

} // namespace

const char *
constraintName(Constraint c)
{
    return kConstraintNames[static_cast<std::size_t>(c)];
}

ProtocolChecker::ProtocolChecker(const TimingParams &timing,
                                 CheckerParams params)
    : timing_(&timing), params_(params), counters_(constraintLabels())
{
}

ProtocolChecker::ChannelState &
ProtocolChecker::channelState(ChannelId ch)
{
    if (static_cast<std::size_t>(ch) >= channels_.size())
        channels_.resize(ch + 1);
    ChannelState &cs = channels_[ch];
    if (cs.ranks.empty()) {
        cs.ranks.resize(timing_->ranksPerChannel);
        cs.banks.resize(timing_->banksPerChannel);
        cs.lastColPerRank.resize(timing_->ranksPerChannel);
        cs.hasColPerRank.assign(timing_->ranksPerChannel, false);
        const int groups =
            timing_->ranksPerChannel * timing_->bankGroupsPerRank;
        cs.lastColPerGroup.resize(groups);
        cs.hasColPerGroup.assign(groups, false);
        for (RankState &rank : cs.ranks) {
            rank.lastActPerGroup.resize(timing_->bankGroupsPerRank);
            rank.hasActPerGroup.assign(timing_->bankGroupsPerRank, false);
        }
    }
    return cs;
}

void
ProtocolChecker::observeChannel(ChannelId ch)
{
    channelState(ch);
}

void
ProtocolChecker::flag(Constraint c, const CommandEvent &ev,
                      Cycle earliestLegal, const CommandEvent *reference)
{
    counters_.bump(static_cast<std::size_t>(c));
    if (violations_.size() >= params_.maxRecordedViolations)
        return;

    Violation v;
    v.constraint = c;
    v.offending = ev;
    if (reference != nullptr) {
        v.reference = *reference;
        v.hasReference = true;
    }
    v.earliestLegal = earliestLegal;

    char detail[128];
    if (earliestLegal == kCycleNever) {
        std::snprintf(detail, sizeof(detail), "illegal state");
    } else if (ev.cycle < earliestLegal) {
        std::snprintf(detail, sizeof(detail),
                      "%llu cycles early (first legal cycle %llu)",
                      static_cast<unsigned long long>(earliestLegal -
                                                      ev.cycle),
                      static_cast<unsigned long long>(earliestLegal));
    } else {
        std::snprintf(detail, sizeof(detail),
                      "deadline missed by %llu cycles (deadline %llu)",
                      static_cast<unsigned long long>(ev.cycle -
                                                      earliestLegal),
                      static_cast<unsigned long long>(earliestLegal));
    }

    v.message = "[";
    v.message += constraintName(c);
    v.message += "] ";
    v.message += formatCommandEvent(ev);
    v.message += ": ";
    v.message += detail;
    if (v.hasReference) {
        v.message += "; after ";
        v.message += formatCommandEvent(v.reference);
    }
    violations_.push_back(std::move(v));
}

Cycle
ProtocolChecker::epochPreStart(const BankState &bank) const
{
    Cycle start = 0;
    if (bank.hasAct)
        start = std::max(start, bank.lastAct.cycle + timing_->tRAS);
    if (bank.hasRead)
        start = std::max(start, bank.lastRead.cycle + timing_->tRTP);
    if (bank.hasWrite)
        start = std::max(start, bank.lastWrite.cycle + timing_->tCWL +
                                    timing_->tBURST + timing_->tWR);
    return start;
}

void
ProtocolChecker::checkActivate(ChannelState &cs, const CommandEvent &ev)
{
    BankState &bank = cs.banks[ev.bank];
    RankState &rank = cs.ranks[ev.rank];

    if (bank.openRow != kNoRow)
        flag(Constraint::ActRowOpen, ev, kCycleNever,
             bank.hasAct ? &bank.lastAct : nullptr);
    if (bank.hasAct && ev.cycle < bank.lastAct.cycle + timing_->tRC)
        flag(Constraint::Trc, ev, bank.lastAct.cycle + timing_->tRC,
             &bank.lastAct);
    if (bank.hasPre && ev.cycle < bank.preStart + timing_->tRP)
        flag(Constraint::Trp, ev, bank.preStart + timing_->tRP,
             &bank.lastPre);
    if (rank.hasRef && ev.cycle < rank.lastRef.cycle + timing_->tRFC)
        flag(Constraint::Trfc, ev, rank.lastRef.cycle + timing_->tRFC,
             &rank.lastRef);
    const bool grouped = timing_->bankGroupsPerRank > 1;
    const int group = timing_->groupInRank(ev.bank);
    if (grouped) {
        // Cross-group spacing (tRRD_S) against any ACT in the rank;
        // same-group spacing (tRRD_L) against the group's own last ACT.
        if (rank.hasAct && ev.cycle < rank.lastAct.cycle + timing_->tRRD_S)
            flag(Constraint::Trrd, ev, rank.lastAct.cycle + timing_->tRRD_S,
                 &rank.lastAct);
        if (rank.hasActPerGroup[group]) {
            const CommandEvent &prev = rank.lastActPerGroup[group];
            if (ev.cycle < prev.cycle + timing_->tRRD_L)
                flag(Constraint::TrrdL, ev, prev.cycle + timing_->tRRD_L,
                     &prev);
        }
    } else if (rank.hasAct &&
               ev.cycle < rank.lastAct.cycle + timing_->tRRD_L) {
        // Single bank group: tRRD_S == tRRD_L, the classic tRRD.
        flag(Constraint::Trrd, ev, rank.lastAct.cycle + timing_->tRRD_L,
             &rank.lastAct);
    }
    if (rank.actCount >= 4) {
        Cycle oldest = rank.actWindow[rank.actCount % 4];
        if (ev.cycle < oldest + timing_->tFAW)
            flag(Constraint::Tfaw, ev, oldest + timing_->tFAW,
                 rank.hasAct ? &rank.lastAct : nullptr);
    }

    bank.openRow = ev.row;
    bank.hasAct = true;
    bank.lastAct = ev;
    bank.hasRead = false;
    bank.hasWrite = false;
    rank.hasAct = true;
    rank.lastAct = ev;
    rank.hasActPerGroup[group] = true;
    rank.lastActPerGroup[group] = ev;
    rank.actWindow[rank.actCount % 4] = ev.cycle;
    ++rank.actCount;
}

void
ProtocolChecker::checkColumn(ChannelState &cs, const CommandEvent &ev)
{
    BankState &bank = cs.banks[ev.bank];
    RankState &rank = cs.ranks[ev.rank];
    const bool isRead = ev.kind == CommandKind::Read;

    if (bank.openRow == kNoRow)
        flag(Constraint::ColClosedBank, ev, kCycleNever,
             bank.hasPre ? &bank.lastPre : nullptr);
    else if (bank.openRow != ev.row)
        flag(Constraint::ColWrongRow, ev, kCycleNever, &bank.lastAct);
    if (bank.hasAct && ev.cycle < bank.lastAct.cycle + timing_->tRCD)
        flag(Constraint::Trcd, ev, bank.lastAct.cycle + timing_->tRCD,
             &bank.lastAct);
    const bool grouped = timing_->bankGroupsPerRank > 1;
    const int group = timing_->groupOfBank(ev.bank);
    if (grouped) {
        // Short spacing (tCCD_S) against any column command on the
        // channel; long spacing (tCCD_L) against the last one to the
        // same bank group.
        if (cs.hasColChan &&
            ev.cycle < cs.lastColChan.cycle + timing_->tCCD_S)
            flag(Constraint::Tccd, ev,
                 cs.lastColChan.cycle + timing_->tCCD_S, &cs.lastColChan);
        if (cs.hasColPerGroup[group]) {
            const CommandEvent &col = cs.lastColPerGroup[group];
            if (ev.cycle < col.cycle + timing_->tCCD_L)
                flag(Constraint::TccdL, ev, col.cycle + timing_->tCCD_L,
                     &col);
        }
    } else if (cs.hasColPerRank[ev.rank]) {
        // Single bank group: tCCD_S == tCCD_L, the classic tCCD.
        const CommandEvent &col = cs.lastColPerRank[ev.rank];
        if (ev.cycle < col.cycle + timing_->tCCD_L)
            flag(Constraint::Tccd, ev, col.cycle + timing_->tCCD_L, &col);
    }
    if (isRead && rank.hasWrite) {
        Cycle turnaround = rank.lastWrite.cycle + timing_->tCWL +
                           timing_->tBURST + timing_->tWTR;
        if (ev.cycle < turnaround)
            flag(Constraint::Twtr, ev, turnaround, &rank.lastWrite);
    }

    // Data bus: bursts must not overlap, with a tRTRS gap when the bus
    // hands over between ranks.
    Cycle start = ev.cycle + (isRead ? timing_->tCL : timing_->tCWL);
    if (cs.hasBurst) {
        Cycle required = cs.burstEnd;
        if (cs.burstRank != ev.rank)
            required += timing_->tRTRS;
        if (start < required)
            flag(Constraint::DataBusConflict, ev,
                 ev.cycle + (required - start), &cs.lastBurstCmd);
    }

    cs.hasBurst = true;
    cs.burstEnd = start + timing_->tBURST;
    cs.burstRank = ev.rank;
    cs.lastBurstCmd = ev;
    cs.hasColPerRank[ev.rank] = true;
    cs.lastColPerRank[ev.rank] = ev;
    cs.hasColPerGroup[group] = true;
    cs.lastColPerGroup[group] = ev;
    cs.hasColChan = true;
    cs.lastColChan = ev;
    if (isRead) {
        bank.hasRead = true;
        bank.lastRead = ev;
    } else {
        bank.hasWrite = true;
        bank.lastWrite = ev;
        rank.hasWrite = true;
        rank.lastWrite = ev;
    }
}

void
ProtocolChecker::checkPrecharge(ChannelState &cs, const CommandEvent &ev)
{
    BankState &bank = cs.banks[ev.bank];

    if (bank.openRow == kNoRow)
        flag(Constraint::PreClosedBank, ev, kCycleNever,
             bank.hasPre ? &bank.lastPre : nullptr);
    if (bank.hasAct && ev.cycle < bank.lastAct.cycle + timing_->tRAS)
        flag(Constraint::Tras, ev, bank.lastAct.cycle + timing_->tRAS,
             &bank.lastAct);
    if (bank.hasRead && ev.cycle < bank.lastRead.cycle + timing_->tRTP)
        flag(Constraint::Trtp, ev, bank.lastRead.cycle + timing_->tRTP,
             &bank.lastRead);
    if (bank.hasWrite) {
        Cycle recovered = bank.lastWrite.cycle + timing_->tCWL +
                          timing_->tBURST + timing_->tWR;
        if (ev.cycle < recovered)
            flag(Constraint::Twr, ev, recovered, &bank.lastWrite);
    }

    bank.openRow = kNoRow;
    bank.hasPre = true;
    bank.lastPre = ev;
    bank.preStart = ev.cycle;
    bank.hasRead = false;
    bank.hasWrite = false;
}

void
ProtocolChecker::checkAutoPrecharge(ChannelState &cs, const CommandEvent &ev)
{
    BankState &bank = cs.banks[ev.bank];

    if (bank.openRow == kNoRow) {
        flag(Constraint::PreClosedBank, ev, kCycleNever,
             bank.hasPre ? &bank.lastPre : nullptr);
        return;
    }
    // The rider by definition starts its precharge only once tRAS, tRTP
    // and tWR are all satisfied — derive that start from the epoch's own
    // events, never from the model's registers.
    bank.preStart = std::max(ev.cycle, epochPreStart(bank));
    bank.openRow = kNoRow;
    bank.hasPre = true;
    bank.lastPre = ev;
    bank.hasRead = false;
    bank.hasWrite = false;
}

void
ProtocolChecker::checkRefresh(ChannelState &cs, const CommandEvent &ev)
{
    RankState &rank = cs.ranks[ev.rank];
    const int banksPerRank = timing_->banksPerRank();
    const BankId base = static_cast<BankId>(ev.rank * banksPerRank);

    for (BankId b = base; b < base + banksPerRank; ++b) {
        BankState &bank = cs.banks[b];
        if (bank.openRow != kNoRow) {
            CommandEvent ref = ev;
            ref.bank = b;
            flag(Constraint::RefRowOpen, ref, kCycleNever,
                 bank.hasAct ? &bank.lastAct : nullptr);
        }
        if (bank.hasPre && ev.cycle < bank.preStart + timing_->tRP) {
            CommandEvent ref = ev;
            ref.bank = b;
            flag(Constraint::Trp, ref, bank.preStart + timing_->tRP,
                 &bank.lastPre);
        }
    }
    if (rank.hasRef && ev.cycle < rank.lastRef.cycle + timing_->tRFC)
        flag(Constraint::Trfc, ev, rank.lastRef.cycle + timing_->tRFC,
             &rank.lastRef);
    if (timing_->refreshEnabled) {
        Cycle deadline =
            rank.lastRefCycle +
            static_cast<Cycle>(params_.refreshDeadlineFactor *
                               static_cast<double>(timing_->tREFI));
        if (ev.cycle > deadline)
            flag(Constraint::RefreshOverdue, ev, deadline,
                 rank.hasRef ? &rank.lastRef : nullptr);
    }

    rank.hasRef = true;
    rank.lastRef = ev;
    rank.lastRefCycle = ev.cycle;
}

void
ProtocolChecker::onCommand(const CommandEvent &ev)
{
    ++eventsAudited_;
    ChannelState &cs = channelState(ev.channel);

    if (ev.autoPre) {
        // Auto-precharge rides the column command: no command-bus slot.
        checkAutoPrecharge(cs, ev);
        return;
    }

    if (cs.hasCmd && ev.cycle < cs.lastCmd.cycle + timing_->tCK)
        flag(Constraint::CmdBusConflict, ev,
             cs.lastCmd.cycle + timing_->tCK, &cs.lastCmd);

    switch (ev.kind) {
      case CommandKind::Activate:
        checkActivate(cs, ev);
        break;
      case CommandKind::Read:
      case CommandKind::Write:
        checkColumn(cs, ev);
        break;
      case CommandKind::Precharge:
        checkPrecharge(cs, ev);
        break;
      case CommandKind::Refresh:
        checkRefresh(cs, ev);
        break;
    }

    cs.hasCmd = true;
    cs.lastCmd = ev;
}

void
ProtocolChecker::finalize(Cycle endCycle)
{
    if (finalized_ || !timing_->refreshEnabled)
        return;
    finalized_ = true;
    const Cycle window =
        static_cast<Cycle>(params_.refreshDeadlineFactor *
                           static_cast<double>(timing_->tREFI));
    for (std::size_t ch = 0; ch < channels_.size(); ++ch) {
        ChannelState &cs = channels_[ch];
        for (std::size_t r = 0; r < cs.ranks.size(); ++r) {
            RankState &rank = cs.ranks[r];
            Cycle deadline = rank.lastRefCycle + window;
            if (endCycle <= deadline)
                continue;
            CommandEvent ev;
            ev.cycle = endCycle;
            ev.channel = static_cast<ChannelId>(ch);
            ev.rank = static_cast<int>(r);
            ev.bank = static_cast<BankId>(r * timing_->banksPerRank());
            ev.kind = CommandKind::Refresh;
            flag(Constraint::RefreshOverdue, ev, deadline,
                 rank.hasRef ? &rank.lastRef : nullptr);
        }
    }
}

std::string
ProtocolChecker::report() const
{
    if (violationCount() == 0)
        return {};
    char head[96];
    std::snprintf(head, sizeof(head),
                  "%llu protocol violation(s) in %llu audited commands:\n",
                  static_cast<unsigned long long>(violationCount()),
                  static_cast<unsigned long long>(eventsAudited_));
    std::string out = head;
    for (const auto &[name, count] : counters_.nonZero()) {
        char line[80];
        std::snprintf(line, sizeof(line), "  %-16s %llu\n", name.c_str(),
                      static_cast<unsigned long long>(count));
        out += line;
    }
    for (const Violation &v : violations_) {
        out += "  ";
        out += v.message;
        out += '\n';
    }
    if (violationCount() > violations_.size())
        out += "  ... (further violations not individually recorded)\n";
    return out;
}

} // namespace tcm::dram
