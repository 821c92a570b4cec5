#include "sim/sampling.hpp"

#include "common/numfmt.hpp"

namespace tcm::sim {

SamplingConfig
SamplingConfig::parse(const std::string &spec, std::string *error)
{
    SamplingConfig cfg;
    auto fail = [&](const std::string &why) {
        if (error)
            *error = "sampling spec '" + spec + "': " + why +
                     " (expected W:K or W:K:WARMUP, W >= 1000, K >= 1)";
        return SamplingConfig{};
    };

    std::size_t c1 = spec.find(':');
    if (c1 == std::string::npos)
        return fail("missing ':'");
    std::size_t c2 = spec.find(':', c1 + 1);

    std::uint64_t w = 0, k = 0, warm = cfg.warmup;
    if (!parseU64(spec.substr(0, c1), &w))
        return fail("bad window");
    const std::string kField =
        c2 == std::string::npos ? spec.substr(c1 + 1)
                                : spec.substr(c1 + 1, c2 - c1 - 1);
    if (!parseU64(kField, &k))
        return fail("bad window count");
    if (c2 != std::string::npos && !parseU64(spec.substr(c2 + 1), &warm))
        return fail("bad warmup");

    if (w < 1000)
        return fail("window below 1000 cycles");
    if (k < 1 || k > 1'000'000)
        return fail("window count out of range");
    // The run steps WARMUP + W*K cycles: neither W*K nor that sum may
    // wrap the cycle counter.
    if (w > kCycleNever / k)
        return fail("W*K overflows the cycle counter");
    if (warm > kCycleNever - w * k)
        return fail("WARMUP + W*K overflows the cycle counter");

    cfg.enabled = true;
    cfg.window = static_cast<Cycle>(w);
    cfg.windows = static_cast<int>(k);
    cfg.warmup = warm;
    return cfg;
}

std::string
SamplingConfig::describe() const
{
    if (!enabled)
        return "off";
    return std::to_string(static_cast<unsigned long long>(window)) + ":" +
           std::to_string(windows) + ":" +
           std::to_string(static_cast<unsigned long long>(warmup));
}

} // namespace tcm::sim
