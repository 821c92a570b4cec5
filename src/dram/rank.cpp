#include "dram/rank.hpp"

#include <algorithm>

namespace tcm::dram {

Rank::Rank(const TimingParams &timing) : timing_(&timing)
{
    actHistory_.fill(kCycleNever);
}

void
Rank::recordActivate(Cycle now, int group)
{
    lastActAt_ = now;
    lastActGroup_ = group;
    actHistory_[actHistoryPos_] = now;
    actHistoryPos_ = (actHistoryPos_ + 1) % 4;
}

Cycle
Rank::earliestActivate(int group) const
{
    Cycle t = 0;
    if (lastActGroup_ >= 0) {
        Cycle spacing = group == lastActGroup_ ? timing_->tRRD_L
                                               : timing_->tRRD_S;
        t = std::max(t, lastActAt_ + spacing);
    }
    Cycle oldest = actHistory_[actHistoryPos_];
    if (oldest != kCycleNever)
        t = std::max(t, oldest + timing_->tFAW);
    return t;
}

void
Rank::recordWrite(Cycle now)
{
    Cycle data_end = now + timing_->tCWL + timing_->tBURST;
    rdAllowedAt_ = std::max(rdAllowedAt_, data_end + timing_->tWTR);
}

} // namespace tcm::dram
