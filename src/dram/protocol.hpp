/**
 * @file
 * Declarative DRAM protocol specifications.
 *
 * A `ProtocolSpec` is a table of named timing constraints — each given in
 * the datasheet's own units, nanoseconds and/or DRAM clocks — plus the
 * device geometry and the system-side clocking. `TimingParams` (the flat
 * CPU-cycle struct the bank/rank/channel engine consumes) is *derived*
 * from a spec at construction, never written by hand: adding a DRAM
 * generation means adding a preset table here, not touching the engine.
 *
 * The split follows the Ramulator 2.0 argument: the protocol is data, the
 * timing engine is code. Every registered preset is independently
 * re-audited by dram::ProtocolChecker, which derives its own constraint
 * set from the same TimingParams but shares no state with the engine.
 */

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "dram/timing.hpp"

namespace tcm::dram {

/**
 * One named timing constraint in datasheet form. The effective value is
 * `max(ns, ck * tCK)` — JEDEC specifies most constraints as the larger
 * of an analog time and a minimum clock count (e.g. DDR3 tWTR is
 * "max(4 nCK, 7.5 ns)"). Either field may be zero when the datasheet
 * uses only one unit.
 */
struct ProtocolParam
{
    double ns = 0.0; //!< analog minimum, nanoseconds
    int ck = 0;      //!< minimum DRAM clocks
};

/** One row of ProtocolSpec::table(): constraint name + datasheet value. */
struct NamedParam
{
    const char *name;
    ProtocolParam value;
};

/**
 * Full declarative description of one DRAM protocol grade. All presets
 * live in `protocols::` below; `derive()` turns a spec into the
 * CPU-cycle `TimingParams` the engine runs on.
 */
struct ProtocolSpec
{
    std::string name;      //!< registry key, e.g. "ddr4-2400"
    Generation generation = Generation::Ddr2;
    int dataRateMTs = 0;   //!< transfer rate, MT/s (documentation)
    double tCkNs = 0.0;    //!< DRAM clock period, nanoseconds
    int burstLength = 8;   //!< transfers per column command (tBURST = BL/2 tCK)

    // -- Geometry ------------------------------------------------------------
    int bankGroupsPerRank = 1; //!< DDR4 bank groups (1 = no grouping)
    int banksPerGroup = 4;     //!< banks in one group
    int ranksPerChannel = 1;
    int rowsPerBank = 16384;
    int colsPerRow = 64;

    // -- Constraint table ----------------------------------------------------
    // tRC may be left zero: derive() then uses tRAS + tRP.
    ProtocolParam tCL, tCWL, tRCD, tRP, tRAS, tRC;
    ProtocolParam tCCD_S, tCCD_L; //!< column spacing: cross-/same-group
    ProtocolParam tRRD_S, tRRD_L; //!< ACT spacing: cross-/same-group
    ProtocolParam tWR, tWTR, tRTP, tFAW, tRTRS, tREFI, tRFC;

    // -- System side ---------------------------------------------------------
    double cpuGhz = 5.0;      //!< CPU clock; cyclesPerNs = cpuGhz
    Cycle cpuToMcDelay = 40;  //!< CPU cycles, not DRAM-clock derived
    Cycle mcToCpuDelay = 35;
    bool refreshEnabled = true;

    /** Effective datasheet value of @p p in nanoseconds. */
    double effectiveNs(const ProtocolParam &p) const;

    /** Effective value of @p p in CPU cycles (rounded). */
    Cycle cycles(const ProtocolParam &p) const;

    /** The named constraint table, in declaration order. */
    std::vector<NamedParam> table() const;

    /**
     * Structural validation: positive clocks and geometry, group split
     * consistency, tCCD_L/tRRD_L at least their short counterparts, and
     * 2*tCCD_S >= tCCD_L (the engine keeps a single column-spacing
     * register, which is only exact under that JEDEC-satisfied bound).
     * Returns an empty string when the spec is sound, else a message.
     */
    std::string validate() const;

    /** Derive the engine's flat CPU-cycle parameter block. */
    TimingParams derive() const;
};

/** Result of a registry lookup: a spec, or an error naming the options. */
struct ProtocolLookup
{
    bool ok = false;
    ProtocolSpec spec;
    std::string error;
};

/**
 * Look up a registered preset by its lowercase name ("ddr2-800", ...).
 * On failure `error` lists the full known-protocol vocabulary, mirroring
 * sched::specByName.
 */
ProtocolLookup protocolByName(const std::string &name);

/** Names of all registered presets, in registry order. */
const std::vector<std::string> &protocolNames();

namespace protocols {

/**
 * The paper's Table 3 device: Micron DDR2-800 (MT47H128M8HQ-25), 4 banks,
 * 2 KB rows. Deriving this spec reproduces the historical hand-written
 * TimingParams::ddr2_800() numbers bit-for-bit (tests assert it), so
 * every golden result in the repo is pinned to this table.
 */
ProtocolSpec ddr2_800();

/** DDR3-1333 CL9 (e.g. Micron MT41J256M8): 8 banks, faster clock. */
ProtocolSpec ddr3_1333();

/** DDR3-1600 CL11: the common DDR3 sweet spot, 8 banks. */
ProtocolSpec ddr3_1600();

/**
 * DDR4-2400 CL17: 4 bank groups x 4 banks. First preset where the
 * tCCD_S/tCCD_L and tRRD_S/tRRD_L splits differ, exercising the
 * bank-group-aware paths in the channel, rank and protocol checker.
 */
ProtocolSpec ddr4_2400();

} // namespace protocols

} // namespace tcm::dram
