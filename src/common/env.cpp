#include "common/env.hpp"

#include <cstdlib>
#include <stdexcept>

#include "common/numfmt.hpp"

namespace tcm {

std::int64_t
envInt(const std::string &name, std::int64_t def, std::int64_t min,
       std::int64_t max)
{
    const char *v = std::getenv(name.c_str());
    if (!v || !*v)
        return def;
    std::int64_t parsed = 0;
    if (!parseInt(v, &parsed) || parsed < min || parsed > max)
        throw std::invalid_argument(
            name + "='" + v + "': expected one integer in [" +
            std::to_string(min) + ", " + std::to_string(max) + "]");
    return parsed;
}

} // namespace tcm
