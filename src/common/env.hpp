/**
 * @file
 * Reading experiment-scaling knobs from the environment.
 *
 * Benches use this so that a CI machine can run short experiments while a
 * beefier host can scale toward the paper's full 100M-cycle, 96-workload
 * setup by exporting TCMSIM_CYCLES / TCMSIM_WORKLOADS / TCMSIM_WARMUP.
 */

#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace tcm {

/**
 * Integer environment variable @p name: @p def when unset or empty.
 * A set value must be one whole decimal integer (common/numfmt) in
 * [@p min, @p max]; anything else ("10k", "3e5", " 7", a value out of
 * range) prints the variable, its text and the range to stderr and
 * exits with status 2, the exit status of a malformed CLI option.
 */
std::int64_t
envInt(const std::string &name, std::int64_t def, std::int64_t min,
       std::int64_t max = std::numeric_limits<std::int64_t>::max());

} // namespace tcm
