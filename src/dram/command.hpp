/**
 * @file
 * DRAM command vocabulary shared by the channel model and the controller.
 */

#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace tcm::dram {

/** The DRAM commands the controller can issue. */
enum class CommandKind
{
    Activate,  //!< Open a row into the bank's row-buffer
    Read,      //!< Column read from the open row
    Write,     //!< Column write into the open row
    Precharge, //!< Close the open row
    Refresh,   //!< All-bank refresh (rank level)
};

/** Human-readable command name (for logs and test failure messages). */
const char *commandName(CommandKind kind);

/** Commands one channel issued over a measurement window. */
struct CommandCounts
{
    std::uint64_t activates = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t refreshes = 0;
};

/**
 * Result of issuing a command on a channel. `occupancy` is the number of
 * cycles the command keeps the target bank busy, which is exactly the
 * "memory service time" that TCM attributes to the owning thread
 * (paper Section 3.2). `dataStart`/`dataEnd` are only meaningful for
 * Read/Write and give the data-bus occupancy window.
 */
struct IssueResult
{
    Cycle occupancy = 0;
    Cycle dataStart = 0;
    Cycle dataEnd = 0;
};

inline const char *
commandName(CommandKind kind)
{
    switch (kind) {
      case CommandKind::Activate: return "ACT";
      case CommandKind::Read: return "RD";
      case CommandKind::Write: return "WR";
      case CommandKind::Precharge: return "PRE";
      case CommandKind::Refresh: return "REF";
    }
    return "???";
}

} // namespace tcm::dram
