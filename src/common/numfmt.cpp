#include "common/numfmt.hpp"

#include <charconv>
#include <cmath>

namespace tcm {

namespace {

std::string
nonFinite(double v)
{
    if (std::isnan(v))
        return "nan";
    return v > 0 ? "inf" : "-inf";
}

} // namespace

std::string
formatDouble(double v)
{
    if (!std::isfinite(v))
        return nonFinite(v);
    // Shortest round-trip form never needs more than 32 chars.
    char buf[40];
    auto [end, ec] =
        std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general);
    (void)ec; // cannot fail: the buffer covers every shortest form
    return std::string(buf, end);
}

std::string
formatDouble(double v, int precision)
{
    if (!std::isfinite(v))
        return nonFinite(v);
    if (precision < 0)
        precision = 0;
    // Fixed form of |v| < 1e300 with <= 64 fraction digits fits easily;
    // grow via string only in the (unused) huge-precision case.
    std::string out(static_cast<std::size_t>(precision) + 350, '\0');
    auto [end, ec] = std::to_chars(out.data(), out.data() + out.size(), v,
                                   std::chars_format::fixed, precision);
    (void)ec;
    out.resize(static_cast<std::size_t>(end - out.data()));
    return out;
}

bool
parseU64(const std::string &s, std::uint64_t *out, int base)
{
    const char *last = s.data() + s.size();
    auto [p, ec] = std::from_chars(s.data(), last, *out, base);
    return ec == std::errc() && p == last;
}

bool
parseInt(const std::string &s, int *out)
{
    const char *last = s.data() + s.size();
    auto [p, ec] = std::from_chars(s.data(), last, *out);
    return ec == std::errc() && p == last;
}

bool
parseInt(const std::string &s, std::int64_t *out)
{
    const char *last = s.data() + s.size();
    auto [p, ec] = std::from_chars(s.data(), last, *out);
    return ec == std::errc() && p == last;
}

bool
parseDouble(const std::string &s, double *out)
{
    const char *last = s.data() + s.size();
    auto [p, ec] = std::from_chars(s.data(), last, *out);
    return ec == std::errc() && p == last;
}

} // namespace tcm
