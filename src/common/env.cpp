#include "common/env.hpp"

#include <cstdio>
#include <cstdlib>

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
    if (!parseInt(v, &parsed) || parsed < min || parsed > max) {
        std::fprintf(stderr,
                     "%s='%s': expected one integer in [%lld, %lld]\n",
                     name.c_str(), v, static_cast<long long>(min),
                     static_cast<long long>(max));
        std::exit(2);
    }
    return parsed;
}

} // namespace tcm
