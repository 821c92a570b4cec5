#include "dram/channel.hpp"

#include <algorithm>
#include <cassert>

namespace tcm::dram {

Channel::Channel(const TimingParams &timing, ChannelId id)
    : timing_(&timing), id_(id)
{
    assert(timing.banksPerChannel % timing.ranksPerChannel == 0);
    assert(timing.banksPerRank() % timing.bankGroupsPerRank == 0);
    ranks_.reserve(timing.ranksPerChannel);
    for (int r = 0; r < timing.ranksPerChannel; ++r)
        ranks_.emplace_back(timing);
    banks_.reserve(timing.banksPerChannel);
    for (int i = 0; i < timing.banksPerChannel; ++i)
        banks_.emplace_back(timing);
}

void
Channel::notifyObservers(CommandKind kind, BankId b, RowId row, Cycle now,
                         bool autoPre) const
{
    CommandEvent ev;
    ev.cycle = now;
    ev.channel = id_;
    ev.rank = rankOf(b);
    ev.bank = b;
    ev.kind = kind;
    ev.row = row;
    ev.autoPre = autoPre;
    for (CommandObserver *obs : observers_)
        obs->onCommand(ev);
}

Cycle
Channel::colAllowedAt(int group) const
{
    if (lastColGroup_ < 0)
        return 0;
    Cycle spacing = group == lastColGroup_ ? timing_->tCCD_L
                                           : timing_->tCCD_S;
    return lastColCmdAt_ + spacing;
}

IssueResult
Channel::issue(CommandKind kind, BankId b, RowId row, Cycle now)
{
    assert(earliestIssue(kind, b) <= now);
    IssueResult res{};
    Bank &bank = banks_[b];
    Rank &rank = ranks_[rankOf(b)];
    cmdBusFreeAt_ = now + timing_->tCK;
    lastIssueCycle_ = now;
    ++version_;
    if (!observers_.empty())
        notifyObservers(kind, b, row, now, /*autoPre=*/false);
    switch (kind) {
      case CommandKind::Activate:
        res.occupancy = bank.activate(now, row);
        rank.recordActivate(now, timing_->groupInRank(b));
        break;
      case CommandKind::Read:
        res.occupancy = bank.read(now);
        res.dataStart = now + timing_->tCL;
        res.dataEnd = res.dataStart + timing_->tBURST;
        dataBusFreeAt_ = res.dataEnd;
        lastColCmdAt_ = now;
        lastColGroup_ = timing_->groupOfBank(b);
        lastBurstRank_ = rankOf(b);
        break;
      case CommandKind::Write:
        res.occupancy = bank.write(now);
        rank.recordWrite(now);
        res.dataStart = now + timing_->tCWL;
        res.dataEnd = res.dataStart + timing_->tBURST;
        dataBusFreeAt_ = res.dataEnd;
        lastColCmdAt_ = now;
        lastColGroup_ = timing_->groupOfBank(b);
        lastBurstRank_ = rankOf(b);
        break;
      case CommandKind::Precharge:
        res.occupancy = bank.precharge(now);
        break;
      case CommandKind::Refresh: {
        int r = rankOf(b);
        int base = r * timing_->banksPerRank();
        for (int i = 0; i < timing_->banksPerRank(); ++i)
            banks_[base + i].refresh(now);
        res.occupancy = timing_->tRFC;
        break;
      }
    }
    return res;
}

Cycle
Channel::autoPrecharge(BankId b)
{
    if (!observers_.empty())
        notifyObservers(CommandKind::Precharge, b, banks_[b].openRow(),
                        lastIssueCycle_, /*autoPre=*/true);
    ++version_;
    return banks_[b].autoPrecharge();
}

bool
Channel::rankPrecharged(int rank) const
{
    int base = rank * timing_->banksPerRank();
    for (int i = 0; i < timing_->banksPerRank(); ++i)
        if (!banks_[base + i].precharged())
            return false;
    return true;
}

Cycle
Channel::earliestIssue(CommandKind kind, BankId b) const
{
    const Bank &bank = banks_[b];
    const int r = rankOf(b);
    const Rank &rank = ranks_[r];
    // Every command waits for the command bus.
    Cycle t = cmdBusFreeAt_;
    switch (kind) {
      case CommandKind::Activate:
        if (!bank.precharged())
            return kCycleNever;
        return std::max({t, bank.actAllowedAt(),
                         rank.earliestActivate(timing_->groupInRank(b))});
      case CommandKind::Read:
      case CommandKind::Write: {
        if (bank.precharged())
            return kCycleNever;
        const bool read = kind == CommandKind::Read;
        t = std::max({t, read ? bank.rdAllowedAt() : bank.wrAllowedAt(),
                      read ? rank.earliestRead() : 0,
                      colAllowedAt(timing_->groupOfBank(b))});
        // The burst starts tCL (tCWL) after the command and must not
        // overlap the previous one, plus tRTRS on a rank switch.
        Cycle bus_free = dataBusFreeAt_;
        if (lastBurstRank_ >= 0 && lastBurstRank_ != r)
            bus_free += timing_->tRTRS;
        Cycle latency = read ? timing_->tCL : timing_->tCWL;
        return bus_free > latency ? std::max(t, bus_free - latency) : t;
      }
      case CommandKind::Precharge:
        if (bank.precharged())
            return kCycleNever;
        return std::max(t, bank.preAllowedAt());
      case CommandKind::Refresh: {
        // Refresh internally activates every bank: each must be
        // precharged with tRP (and tRFC since the previous refresh)
        // elapsed, exactly as if an ACT were issued to it.
        if (!rankPrecharged(r))
            return kCycleNever;
        int base = r * timing_->banksPerRank();
        for (int i = 0; i < timing_->banksPerRank(); ++i)
            t = std::max(t, banks_[base + i].actAllowedAt());
        return t;
      }
    }
    return kCycleNever;
}

} // namespace tcm::dram
