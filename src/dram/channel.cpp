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

bool
Channel::canIssue(CommandKind kind, BankId b, Cycle now) const
{
    if (!cmdBusFree(now))
        return false;
    const Bank &bank = banks_[b];
    const Rank &rank = ranks_[rankOf(b)];
    switch (kind) {
      case CommandKind::Activate:
        return bank.canActivate(now) &&
               rank.canActivate(now, timing_->groupInRank(b));
      case CommandKind::Read: {
        if (!rank.commandsAllowed(now))
            return false;
        Cycle data_start = now + timing_->tCL;
        Cycle bus_free = dataBusFreeAt_;
        if (lastBurstRank_ >= 0 && lastBurstRank_ != rankOf(b))
            bus_free += timing_->tRTRS;
        return bank.canRead(now) && rank.canRead(now) &&
               now >= colAllowedAt(timing_->groupOfBank(b)) &&
               data_start >= bus_free;
      }
      case CommandKind::Write: {
        if (!rank.commandsAllowed(now))
            return false;
        Cycle data_start = now + timing_->tCWL;
        Cycle bus_free = dataBusFreeAt_;
        if (lastBurstRank_ >= 0 && lastBurstRank_ != rankOf(b))
            bus_free += timing_->tRTRS;
        return bank.canWrite(now) &&
               now >= colAllowedAt(timing_->groupOfBank(b)) &&
               data_start >= bus_free;
      }
      case CommandKind::Precharge:
        return rank.commandsAllowed(now) && bank.canPrecharge(now);
      case CommandKind::Refresh: {
        // Refresh internally activates every bank: each bank must be
        // precharged with tRP elapsed (and tRFC since the previous
        // refresh), exactly as if an ACT were issued to it.
        if (!rank.commandsAllowed(now))
            return false;
        int r = rankOf(b);
        int base = r * timing_->banksPerRank();
        for (int i = 0; i < timing_->banksPerRank(); ++i)
            if (!banks_[base + i].canActivate(now))
                return false;
        return true;
      }
      case CommandKind::PowerDown:
        return rank.canPowerDown(now) && rankPrecharged(rankOf(b));
      case CommandKind::PowerUp:
        return rank.canPowerUp(now);
    }
    return false;
}

IssueResult
Channel::issue(CommandKind kind, BankId b, RowId row, Cycle now)
{
    assert(canIssue(kind, b, now));
    IssueResult res{};
    Bank &bank = banks_[b];
    Rank &rank = ranks_[rankOf(b)];
    cmdBusFreeAt_ = now + timing_->tCK;
    lastIssueCycle_ = now;
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
      case CommandKind::PowerDown:
        rank.recordPowerDown(now);
        break;
      case CommandKind::PowerUp:
        rank.recordPowerUp(now);
        break;
    }
    return res;
}

Cycle
Channel::autoPrecharge(BankId b)
{
    if (!observers_.empty())
        notifyObservers(CommandKind::Precharge, b, banks_[b].openRow(),
                        lastIssueCycle_, /*autoPre=*/true);
    return banks_[b].autoPrecharge();
}

bool
Channel::allBanksPrecharged() const
{
    return std::all_of(banks_.begin(), banks_.end(),
                       [](const Bank &b) { return b.precharged(); });
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
    const Rank &rank = ranks_[rankOf(b)];
    Cycle rtrs = lastBurstRank_ >= 0 && lastBurstRank_ != rankOf(b)
                     ? timing_->tRTRS
                     : 0;
    Cycle t = cmdBusFreeAt_;
    switch (kind) {
      case CommandKind::Activate:
        if (!bank.precharged())
            return kCycleNever;
        t = std::max(t, bank.actAllowedAt());
        t = std::max(t, rank.earliestActivate(timing_->groupInRank(b)));
        return t;
      case CommandKind::Read:
        if (bank.precharged())
            return kCycleNever;
        t = std::max(t, rank.earliestCommandsAllowed());
        t = std::max(t, bank.rdAllowedAt());
        t = std::max(t, rank.earliestRead());
        t = std::max(t, colAllowedAt(timing_->groupOfBank(b)));
        if (dataBusFreeAt_ + rtrs > timing_->tCL)
            t = std::max(t, dataBusFreeAt_ + rtrs - timing_->tCL);
        return t;
      case CommandKind::Write:
        if (bank.precharged())
            return kCycleNever;
        t = std::max(t, rank.earliestCommandsAllowed());
        t = std::max(t, bank.wrAllowedAt());
        t = std::max(t, colAllowedAt(timing_->groupOfBank(b)));
        if (dataBusFreeAt_ + rtrs > timing_->tCWL)
            t = std::max(t, dataBusFreeAt_ + rtrs - timing_->tCWL);
        return t;
      case CommandKind::Precharge:
        if (bank.precharged())
            return kCycleNever;
        t = std::max(t, rank.earliestCommandsAllowed());
        return std::max(t, bank.preAllowedAt());
      case CommandKind::Refresh: {
        if (!rankPrecharged(rankOf(b)))
            return kCycleNever;
        int r = rankOf(b);
        int base = r * timing_->banksPerRank();
        t = std::max(t, rank.earliestCommandsAllowed());
        for (int i = 0; i < timing_->banksPerRank(); ++i)
            t = std::max(t, banks_[base + i].actAllowedAt());
        return t;
      }
      case CommandKind::PowerDown:
        if (rank.poweredDown() || !rankPrecharged(rankOf(b)))
            return kCycleNever;
        return std::max(t, rank.earliestCommandsAllowed());
      case CommandKind::PowerUp:
        if (!rank.poweredDown())
            return kCycleNever;
        return std::max(t, rank.earliestPowerUp());
    }
    return kCycleNever;
}

} // namespace tcm::dram
