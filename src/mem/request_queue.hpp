/**
 * @file
 * Bounded read/write request buffers for one memory controller.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/request.hpp"

namespace tcm::mem {

/**
 * One lane of the request buffer: the queued reads, or the queued
 * writes. The hot priority scan touches only a handful of Request
 * fields; keeping them in parallel arrays, index-aligned with
 * requests(), lets it stream over dense, cache-friendly data instead of
 * striding through whole Request structs. push and remove keep the
 * arrays aligned. The static half of each request's packed priority key
 * is owned by the controller, which stamps it at admission and rebuilds
 * it when scheduler knobs move (see MemoryController::stampKeys).
 */
class RequestLane
{
  public:
    /** Append @p req with a zero key for the controller to stamp. */
    void push(const Request &req);

    /** Remove entry @p idx via swap-pop; returns the removed request. */
    Request remove(std::size_t idx);

    std::size_t size() const { return requests_.size(); }

    std::vector<Request> &requests() { return requests_; }
    const std::vector<Request> &requests() const { return requests_; }
    const BankId *bank() const { return bank_.data(); }
    const RowId *row() const { return row_.data(); }
    const Cycle *arrivedAt() const { return arrivedAt_.data(); }
    std::uint64_t *keyHi() { return keyHi_.data(); }

  private:
    std::vector<Request> requests_;
    std::vector<BankId> bank_;
    std::vector<RowId> row_;
    std::vector<Cycle> arrivedAt_;
    std::vector<std::uint64_t> keyHi_;
};

/**
 * Holds the controller's queued requests: a read request buffer and a
 * write data buffer (Table 3: 128-entry reads, 64-entry writes). Requests
 * that have been transported from the core but are not yet visible
 * (cpuToMcDelay in flight) count against capacity so a core can never
 * oversubscribe the buffer.
 */
class RequestQueue
{
  public:
    RequestQueue(int readCap, int writeCap);

    /** @{ Capacity checks, counting in-flight arrivals. */
    bool canAcceptRead() const;
    bool canAcceptWrite() const;
    /** @} */

    /** Add a request still in transport; becomes visible at arrivedAt. */
    void addInFlight(const Request &req);

    /**
     * Move every in-flight request with arrivedAt <= now into the visible
     * lanes; returns the requests that just arrived (for observer
     * hooks). The returned reference aliases an internal scratch buffer
     * that the next admitArrivals call reuses — no per-tick allocation,
     * and the empty-tick fast path touches nothing but the FIFO head.
     */
    const std::vector<Request> &admitArrivals(Cycle now);

    RequestLane &readLane() { return reads_; }
    RequestLane &writeLane() { return writes_; }
    const RequestLane &readLane() const { return reads_; }
    const RequestLane &writeLane() const { return writes_; }

    std::vector<Request> &reads() { return reads_.requests(); }
    std::vector<Request> &writes() { return writes_.requests(); }
    const std::vector<Request> &reads() const { return reads_.requests(); }
    const std::vector<Request> &writes() const { return writes_.requests(); }

    int readCap() const { return readCap_; }
    int writeCap() const { return writeCap_; }

    /**
     * Arrival time of the next in-flight request (the FIFO is sorted by
     * arrivedAt); kCycleNever when nothing is in transport. Event
     * horizon for admitArrivals: ticks strictly before this admit
     * nothing.
     */
    Cycle
    nextArrivalAt() const
    {
        return inFlight_.empty() ? kCycleNever : inFlight_.front().arrivedAt;
    }

    /** Visible + in-flight read count. */
    std::size_t readLoad() const { return reads_.size() + inFlightReads_; }

    /** Visible + in-flight write count. */
    std::size_t writeLoad() const { return writes_.size() + inFlightWrites_; }

  private:
    int readCap_;
    int writeCap_;
    RequestLane reads_;
    RequestLane writes_;
    std::vector<Request> inFlight_; //!< FIFO by arrival time
    std::vector<Request> admitScratch_; //!< reused by admitArrivals
    std::size_t inFlightReads_ = 0;
    std::size_t inFlightWrites_ = 0;
};

} // namespace tcm::mem
