/**
 * @file
 * Small fixed-vocabulary named-counter set: an ordered list of labelled
 * uint64 counters. Used wherever a component exposes per-category event
 * counts to the report layer (e.g. the protocol checker's per-constraint
 * violation tallies).
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tcm::stats {

/**
 * Counters keyed by a dense id with a human-readable label per slot.
 * The vocabulary is fixed at construction; bumping is O(1) with no
 * hashing, and snapshots preserve declaration order for stable reports.
 */
class NamedCounters
{
  public:
    explicit NamedCounters(std::vector<std::string> labels)
        : labels_(std::move(labels)), counts_(labels_.size(), 0)
    {
    }

    std::size_t size() const { return labels_.size(); }
    const std::string &label(std::size_t id) const { return labels_[id]; }
    std::uint64_t count(std::size_t id) const { return counts_[id]; }

    void bump(std::size_t id, std::uint64_t by = 1) { counts_[id] += by; }

    /** Sum over all slots. */
    std::uint64_t total() const;

    /** (label, count) pairs in declaration order, zeros included. */
    std::vector<std::pair<std::string, std::uint64_t>> snapshot() const;

    /** (label, count) pairs for the non-zero slots only. */
    std::vector<std::pair<std::string, std::uint64_t>> nonZero() const;

    void reset();

  private:
    std::vector<std::string> labels_;
    std::vector<std::uint64_t> counts_;
};

} // namespace tcm::stats
