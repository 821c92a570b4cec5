/**
 * @file
 * On-disk trace format: capture and replay of instruction streams.
 *
 * The simulator normally runs generative synthetic traces, but a
 * downstream user with real traces (Pin, DynamoRIO, perf mem, ...) can
 * convert them to this format and replay them unchanged. The format is
 * deliberately simple: a fixed header naming the DRAM geometry the
 * coordinates were mapped against, then fixed-width records of
 * core::TraceItem fields.
 *
 * Layout (all fields little-endian on all supported hosts):
 *   header:  magic "TCMT", u32 version, u32 numChannels,
 *            u32 banksPerChannel, u32 rowsPerBank, u32 colsPerRow,
 *            u64 recordCount
 *   record:  u32 gap, u8 isWrite, u8 channel, u8 bank, u8 pad,
 *            u32 row, u32 col                      (16 bytes)
 */

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/trace.hpp"
#include "workload/synthetic_trace.hpp"

namespace tcm::workload {

/** Raised on malformed trace files or geometry mismatches. */
class TraceFileError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Streams trace items into a file. */
class TraceWriter
{
  public:
    /** Create/truncate @p path and write the header. Throws on I/O error. */
    TraceWriter(const std::string &path, const Geometry &geometry);
    /** Closes without throwing: call close() to learn whether the file
     *  was written. */
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one item. */
    void write(const core::TraceItem &item);

    /** Flush, backpatch the record count, and close. Throws
     *  TraceFileError when any of it fails (a full disk shows here). */
    void close();

    std::uint64_t recordsWritten() const { return count_; }

  private:
    struct Impl;
    Impl *impl_;
    std::uint64_t count_ = 0;
};

/**
 * Replays a trace file as an infinite stream by looping: after the last
 * record, replay restarts from the first (the standard convention for
 * finite traces driving fixed-length simulations).
 */
class FileTrace : public core::TraceSource
{
  public:
    /**
     * Load @p path fully into memory. @p systemGeometry is the geometry
     * of the simulated machine; the trace's coordinates must fit inside
     * it or FileTrace throws TraceFileError.
     */
    FileTrace(const std::string &path, const Geometry &systemGeometry);

    core::TraceItem next() override;

    std::size_t size() const { return items_.size(); }
    const Geometry &traceGeometry() const { return geometry_; }

  private:
    std::vector<core::TraceItem> items_;
    Geometry geometry_;
    std::size_t pos_ = 0;
};

/**
 * Convenience: capture @p count items of a synthetic clone to @p path
 * (what the tools/tracegen utility does).
 */
void captureSyntheticTrace(const ThreadProfile &profile,
                           const Geometry &geometry, std::uint64_t seed,
                           std::uint64_t count, const std::string &path);

/**
 * Dump a binary trace as text, one record per line:
 *   `<gap> <R|W> <channel> <bank> <row> <col>`
 * preceded by a `# geometry: channels banks rows cols` comment.
 * This is the interchange format for users converting real traces.
 * Throws TraceFileError when @p binPath does not load or @p textPath
 * cannot be written in full.
 */
void dumpTraceAsText(const std::string &binPath,
                     const std::string &textPath);

/**
 * Convert the text format above into a binary trace. Lines starting
 * with '#' are comments; the first must be the geometry line. Throws
 * TraceFileError on malformed input.
 */
void convertTextTrace(const std::string &textPath,
                      const std::string &binPath);

} // namespace tcm::workload
