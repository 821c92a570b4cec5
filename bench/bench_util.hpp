/**
 * @file
 * Shared formatting and setup helpers for the reproduction benches,
 * plus structured-results emission: every bench fills a
 * sim::results::ResultsDoc alongside its text tables and hands it to
 * writeJsonIfRequested(), so a run can be diffed and claim-checked by
 * tools/claims instead of eyeballed.
 */

#pragma once

#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/results.hpp"

namespace tcm::bench {

/** Print the standard bench banner with the experiment scale in use. */
void printHeader(const std::string &title, const sim::ExperimentScale &scale);

/**
 * Note on stderr that TCMSIM_PROFILE is on. Called only by the benches
 * built on the paper drivers (sim::paper), which resolve the knob
 * (sim::requestedProfile) and profile their runs; other benches' runs
 * ignore it.
 */
void noteSelfProfile();

/**
 * Where this bench run's structured results should go: the value of a
 * `--json PATH` argument if present, else `$TCMSIM_BENCH_JSON/BENCH_
 * <bench>.json` (the env var names a directory, created on demand so
 * one exported variable collects a whole bench sweep), else "" (no
 * JSON requested).
 */
std::string jsonOutputPath(const std::string &bench, int argc,
                           char **argv);

/**
 * Serialize @p doc to jsonOutputPath(doc.bench, ...) when the run asked
 * for it; a no-op otherwise. Prints a one-line "results json: PATH"
 * note to stderr (stdout stays byte-identical with and without JSON
 * emission). Exits nonzero on I/O failure.
 */
void writeJsonIfRequested(const sim::results::ResultsDoc &doc, int argc,
                          char **argv);

} // namespace tcm::bench
