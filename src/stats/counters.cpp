#include "stats/counters.hpp"

namespace tcm::stats {

std::uint64_t
NamedCounters::total() const
{
    std::uint64_t sum = 0;
    for (std::uint64_t c : counts_)
        sum += c;
    return sum;
}

std::vector<std::pair<std::string, std::uint64_t>>
NamedCounters::snapshot() const
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(labels_.size());
    for (std::size_t i = 0; i < labels_.size(); ++i)
        out.emplace_back(labels_[i], counts_[i]);
    return out;
}

std::vector<std::pair<std::string, std::uint64_t>>
NamedCounters::nonZero() const
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (std::size_t i = 0; i < labels_.size(); ++i)
        if (counts_[i] != 0)
            out.emplace_back(labels_[i], counts_[i]);
    return out;
}

void
NamedCounters::reset()
{
    counts_.assign(counts_.size(), 0);
}

} // namespace tcm::stats
