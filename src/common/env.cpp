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
    if (!parseInt(v, &parsed) || parsed < min || parsed > max)
        envReject(name, v,
                  "expected one integer in [" + std::to_string(min) + ", " +
                      std::to_string(max) + "]");
    return parsed;
}

void
envReject(const std::string &name, const std::string &text,
          const std::string &why)
{
    std::fprintf(stderr, "%s='%s': %s\n", name.c_str(), text.c_str(),
                 why.c_str());
    std::exit(2);
}

} // namespace tcm
