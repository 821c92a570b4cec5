#include "mem/request_queue.hpp"

#include <cassert>

namespace tcm::mem {

void
RequestLane::push(const Request &req)
{
    requests_.push_back(req);
    bank_.push_back(req.bank);
    row_.push_back(req.row);
    arrivedAt_.push_back(req.arrivedAt);
    keyHi_.push_back(0);
}

Request
RequestLane::remove(std::size_t idx)
{
    assert(idx < requests_.size());
    Request req = requests_[idx];
    requests_[idx] = requests_.back();
    requests_.pop_back();
    bank_[idx] = bank_.back();
    bank_.pop_back();
    row_[idx] = row_.back();
    row_.pop_back();
    arrivedAt_[idx] = arrivedAt_.back();
    arrivedAt_.pop_back();
    keyHi_[idx] = keyHi_.back();
    keyHi_.pop_back();
    return req;
}

RequestQueue::RequestQueue(int readCap, int writeCap)
    : readCap_(readCap), writeCap_(writeCap)
{
}

bool
RequestQueue::canAcceptRead() const
{
    return readLoad() < static_cast<std::size_t>(readCap_);
}

bool
RequestQueue::canAcceptWrite() const
{
    return writeLoad() < static_cast<std::size_t>(writeCap_);
}

void
RequestQueue::addInFlight(const Request &req)
{
    if (req.isWrite) {
        assert(canAcceptWrite());
        ++inFlightWrites_;
    } else {
        assert(canAcceptRead());
        ++inFlightReads_;
    }
    // Arrival times are monotonic (fixed transport delay), so push_back
    // keeps the FIFO sorted by arrivedAt.
    assert(inFlight_.empty() || inFlight_.back().arrivedAt <= req.arrivedAt);
    inFlight_.push_back(req);
}

const std::vector<Request> &
RequestQueue::admitArrivals(Cycle now)
{
    // Fast path: nothing due. The FIFO is sorted by arrivedAt, so one
    // head probe decides — the scratch buffer is returned (possibly
    // stale from the previous admitting tick) but sized to zero first
    // only when we know we must touch it.
    if (inFlight_.empty() || inFlight_.front().arrivedAt > now) {
        admitScratch_.clear();
        return admitScratch_;
    }
    std::size_t n = 1;
    while (n < inFlight_.size() && inFlight_[n].arrivedAt <= now)
        ++n;
    admitScratch_.assign(inFlight_.begin(), inFlight_.begin() + n);
    inFlight_.erase(inFlight_.begin(), inFlight_.begin() + n);
    for (const Request &req : admitScratch_) {
        if (req.isWrite) {
            --inFlightWrites_;
            writes_.push(req);
        } else {
            --inFlightReads_;
            reads_.push(req);
        }
    }
    return admitScratch_;
}

} // namespace tcm::mem
