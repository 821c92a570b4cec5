#include "dram/bank.hpp"

#include <algorithm>
#include <cassert>

namespace tcm::dram {

Bank::Bank(const TimingParams &timing) : timing_(&timing)
{
}

Cycle
Bank::activate(Cycle now, RowId row)
{
    assert(precharged() && now >= actAllowedAt_);
    assert(row != kNoRow);
    openRow_ = row;
    rdAllowedAt_ = now + timing_->tRCD;
    wrAllowedAt_ = now + timing_->tRCD;
    preAllowedAt_ = now + timing_->tRAS;
    actAllowedAt_ = now + timing_->tRC;
    return timing_->tRCD;
}

Cycle
Bank::read(Cycle now)
{
    assert(!precharged() && now >= rdAllowedAt_);
    // Same-bank columns are same-group by definition: the long spacing.
    preAllowedAt_ = std::max(preAllowedAt_, now + timing_->tRTP);
    rdAllowedAt_ = std::max(rdAllowedAt_, now + timing_->tCCD_L);
    wrAllowedAt_ = std::max(wrAllowedAt_, now + timing_->tCCD_L);
    return timing_->tBURST;
}

Cycle
Bank::write(Cycle now)
{
    assert(!precharged() && now >= wrAllowedAt_);
    Cycle data_end = now + timing_->tCWL + timing_->tBURST;
    preAllowedAt_ = std::max(preAllowedAt_, data_end + timing_->tWR);
    rdAllowedAt_ = std::max(rdAllowedAt_, now + timing_->tCCD_L);
    wrAllowedAt_ = std::max(wrAllowedAt_, now + timing_->tCCD_L);
    return timing_->tBURST;
}

Cycle
Bank::precharge(Cycle now)
{
    assert(!precharged() && now >= preAllowedAt_);
    openRow_ = kNoRow;
    actAllowedAt_ = std::max(actAllowedAt_, now + timing_->tRP);
    return timing_->tRP;
}

void
Bank::refresh(Cycle now)
{
    assert(precharged());
    actAllowedAt_ = std::max(actAllowedAt_, now + timing_->tRFC);
}

Cycle
Bank::autoPrecharge()
{
    assert(!precharged());
    openRow_ = kNoRow;
    // The implicit precharge starts once tRAS/tRTP/tWR are satisfied
    // (all folded into preAllowedAt_) and takes tRP.
    actAllowedAt_ = std::max(actAllowedAt_, preAllowedAt_ + timing_->tRP);
    return timing_->tRP;
}

} // namespace tcm::dram
