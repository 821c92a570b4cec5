/**
 * @file
 * Locale-independent number formatting (std::to_chars) and parsing
 * (std::from_chars).
 *
 * Every serialized number in the repo — bench results JSON, telemetry
 * JSONL, golden files — must render identically on every platform and
 * under every LC_NUMERIC, or goldens stop being diffable. printf-family
 * formatting honors the process locale (a German locale prints "0,5"),
 * so all JSON emission routes through these helpers instead. The parse
 * half serves the plain-text inputs: manifests, alone-IPC stores,
 * checkpoints and command-line options.
 */

#pragma once

#include <cstdint>
#include <string>

namespace tcm {

/**
 * Shortest decimal form that round-trips to exactly @p v
 * (std::chars_format::general). "0.5" stays "0.5", 1/3 gets all the
 * digits it needs. Non-finite values render as "nan"/"inf"/"-inf";
 * JSON writers must map those to null before emission.
 */
std::string formatDouble(double v);

/** Fixed-precision decimal form (std::chars_format::fixed), the
 *  locale-independent equivalent of printf("%.*f"). */
std::string formatDouble(double v, int precision);

/** @{
 * Whole-string parses: true only when all of @p s is one number of the
 * target type. Empty strings, leading spaces or '+', trailing text, a
 * '-' on an unsigned value and out-of-range values are all rejected.
 * *out is meaningful only on success.
 */
bool parseU64(const std::string &s, std::uint64_t *out, int base = 10);
bool parseInt(const std::string &s, int *out);
bool parseInt(const std::string &s, std::int64_t *out);
bool parseDouble(const std::string &s, double *out);
/** @} */

} // namespace tcm
