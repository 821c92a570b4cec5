#include "core/core.hpp"

#include <algorithm>
#include <cassert>

namespace tcm::core {

Core::Core(ThreadId id, const CoreParams &params, TraceSource &trace,
           std::vector<mem::MemoryController *> controllers,
           mem::CoreCounters *counters)
    : id_(id),
      params_(params),
      trace_(&trace),
      controllers_(std::move(controllers)),
      counters_(counters)
{
    assert(counters_ != nullptr);
}

void
Core::completeMiss(std::uint64_t missId, Cycle readyAt)
{
    done_[missId] = readyAt;
}

void
Core::retire(Cycle now)
{
    int slots = params_.retireWidth;
    while (slots > 0 && !window_.empty()) {
        Entry &head = window_.front();
        if (head.plain > 0) {
            std::uint32_t n = std::min<std::uint32_t>(slots, head.plain);
            head.plain -= n;
            occupancy_ -= static_cast<int>(n);
            counters_->instructions += n;
            slots -= static_cast<int>(n);
            if (head.plain == 0)
                window_.pop_front();
        } else {
            auto it = done_.find(head.missId);
            if (it == done_.end() || it->second > now)
                break; // head-of-window miss still outstanding
            done_.erase(it);
            window_.pop_front();
            occupancy_ -= 1;
            counters_->instructions += 1;
            slots -= 1;
        }
    }
}

bool
Core::fetch(Cycle now)
{
    int slots = params_.fetchWidth;
    int memIssued = 0;
    while (slots > 0 && occupancy_ < params_.windowSize) {
        if (!havePending_) {
            TraceItem item = trace_->next();
            pendingGap_ = item.gap;
            pendingAccess_ = item.access;
            havePending_ = true;
        }
        if (pendingGap_ > 0) {
            std::uint32_t n = static_cast<std::uint32_t>(std::min<std::uint64_t>(
                {static_cast<std::uint64_t>(slots),
                 static_cast<std::uint64_t>(params_.windowSize - occupancy_),
                 pendingGap_}));
            if (!window_.empty() && window_.back().plain > 0)
                window_.back().plain += n;
            else
                window_.push_back(Entry{n, 0});
            occupancy_ += static_cast<int>(n);
            pendingGap_ -= n;
            slots -= static_cast<int>(n);
            continue;
        }

        // The pending memory access is at the fetch head.
        if (memIssued >= params_.maxMemPerCycle)
            break;
        mem::MemoryController *mc = controllers_[pendingAccess_.channel];
        if (pendingAccess_.isWrite) {
            if (!mc->canAcceptWrite())
                break; // write buffer full: structural stall
            mc->submitWrite(id_, pendingAccess_.bank, pendingAccess_.row,
                            pendingAccess_.col, now);
            // Writebacks are not instructions and do not enter the window.
            ++memIssued;
            slots -= 1;
            havePending_ = false;
        } else {
            if (!mc->canAcceptRead())
                break; // request buffer full: structural stall
            std::uint64_t missId = nextMissId_++;
            mc->submitRead(id_, missId, pendingAccess_.bank,
                           pendingAccess_.row, pendingAccess_.col, now);
            window_.push_back(Entry{0, missId});
            occupancy_ += 1;
            counters_->readMisses += 1;
            ++memIssued;
            slots -= 1;
            havePending_ = false;
        }
    }
    return memIssued > 0;
}

bool
Core::tick(Cycle now)
{
    retire(now);
    return fetch(now);
}

} // namespace tcm::core
