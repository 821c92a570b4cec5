/**
 * @file
 * Option-value parsing shared by the command-line tools. A malformed or
 * out-of-range value ends the process with exit status 2 and one line
 * on stderr, "<tool>: <option> needs <what>, got '<text>'", followed by
 * the tool's hint or usage text.
 */

#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/numfmt.hpp"

namespace tcm::cli {

/** One tool's usage-error reporting. */
struct Tool
{
    const char *name;          //!< prefixes every message
    const char *hint = "";     //!< appended to the message line
    void (*usage)() = nullptr; //!< printed after the message line

    /** Report @p message and exit 2. */
    [[noreturn]] void
    die(const std::string &message) const
    {
        std::fprintf(stderr, "%s: %s%s\n", name, message.c_str(), hint);
        if (usage)
            usage();
        std::exit(2);
    }

    /** Report that @p option needs @p want, not @p text, and exit 2. */
    [[noreturn]] void
    badValue(const std::string &option, const std::string &text,
             const std::string &want) const
    {
        die(option + " needs " + want + ", got '" + text + "'");
    }

    /** Whole-string integer >= @p min, or exit 2. */
    int
    intOption(const char *option, const char *text, int min) const
    {
        int v = 0;
        if (!parseInt(text, &v) || v < min)
            badValue(option, text, "an integer >= " + std::to_string(min));
        return v;
    }

    /** Whole-string unsigned integer >= @p min, or exit 2. */
    std::uint64_t
    u64Option(const char *option, const char *text, std::uint64_t min) const
    {
        std::uint64_t v = 0;
        if (!parseU64(text, &v) || v < min)
            badValue(option, text, "an integer >= " + std::to_string(min));
        return v;
    }

    /** Whole-string finite number in [0, @p max], or exit 2 naming
     *  @p want. */
    double
    doubleOption(const char *option, const char *text, double max,
                 const char *want) const
    {
        double v = 0.0;
        if (!parseDouble(text, &v) || !std::isfinite(v) || v < 0.0 ||
            v > max)
            badValue(option, text, want);
        return v;
    }
};

} // namespace tcm::cli
