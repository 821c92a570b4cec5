/**
 * @file
 * DRAM timing parameters, expressed in CPU cycles.
 *
 * The whole simulator runs on a single CPU clock (5 GHz by default,
 * 0.2 ns per cycle, matching the paper's Table 3 where a 40 ns row-buffer
 * hit corresponds to 200 cycles). DRAM-side constraints are specified in
 * datasheet units by a dram::ProtocolSpec (see protocol.hpp) and
 * converted once at derivation — `TimingParams` is the flat, derived
 * form the bank/rank/channel engine consumes; it is never written by
 * hand outside tests.
 */

#pragma once

#include <string>

#include "common/types.hpp"

namespace tcm::dram {

/** DRAM generation of a parameter block (selects defaults and checks). */
enum class Generation
{
    Ddr2,
    Ddr3,
    Ddr4,
};

/**
 * Full set of DRAM timing and geometry parameters used by the bank, rank
 * and channel models. All `t*` members are CPU cycles.
 *
 * Protocols without bank groups (DDR2/DDR3) carry tCCD_S == tCCD_L and
 * tRRD_S == tRRD_L, so the group-aware engine paths reduce exactly to
 * the classic single-constraint behavior.
 */
struct TimingParams
{
    /** Registry name of the protocol this block was derived from. */
    std::string protocol;

    Generation generation = Generation::Ddr2;

    /** CPU cycles per nanosecond (the CPU clock, from the spec). */
    double cyclesPerNs = 5.0;

    /** Convert nanoseconds to (rounded) CPU cycles at this CPU clock. */
    Cycle ns(double nanoseconds) const;

    // -- DRAM clock --------------------------------------------------------
    Cycle tCK;    //!< DRAM command-clock period (2.5 ns at DDR2-800)

    // -- Core timing constraints -------------------------------------------
    Cycle tCL;    //!< CAS (read) latency
    Cycle tCWL;   //!< CAS write latency (tCL - tCK for DDR2)
    Cycle tRCD;   //!< ACT-to-RD/WR delay
    Cycle tRP;    //!< PRE-to-ACT delay
    Cycle tRAS;   //!< ACT-to-PRE minimum
    Cycle tRC;    //!< ACT-to-ACT same bank (tRAS + tRP)
    Cycle tBURST; //!< Data-bus occupancy of one access (BL/2 DRAM cycles)
    Cycle tCCD_S; //!< Column-to-column spacing, different bank groups
    Cycle tCCD_L; //!< Column-to-column spacing, same bank group
    Cycle tRRD_S; //!< ACT-to-ACT spacing, different bank groups, same rank
    Cycle tRRD_L; //!< ACT-to-ACT spacing, same bank group
    Cycle tWR;    //!< Write recovery (end of write data to PRE)
    Cycle tWTR;   //!< Write-to-read turnaround (end of write data to RD)
    Cycle tRTP;   //!< Read-to-precharge delay
    Cycle tFAW;   //!< Four-activate window, per rank
    Cycle tRTRS;  //!< Rank-to-rank data-bus switch penalty
    Cycle tREFI;  //!< Average refresh interval
    Cycle tRFC;   //!< Refresh cycle time

    // -- Interconnect delays (controller <-> core) -------------------------
    Cycle cpuToMcDelay; //!< Core request to controller-queue visibility
    Cycle mcToCpuDelay; //!< Last data beat to core wakeup

    // -- Geometry -----------------------------------------------------------
    int banksPerChannel;   //!< Total banks behind one controller
    int ranksPerChannel;   //!< DIMM ranks; banksPerChannel splits evenly
    int bankGroupsPerRank; //!< DDR4 bank groups (1 = no grouping)
    int rowsPerBank;       //!< Rows per bank
    int colsPerRow;        //!< Cache-block-sized columns per row

    /** Banks in one rank (banksPerChannel / ranksPerChannel). */
    int banksPerRank() const { return banksPerChannel / ranksPerChannel; }

    /** Banks in one bank group. */
    int banksPerGroup() const { return banksPerRank() / bankGroupsPerRank; }

    /** Bank group of @p bank within its rank, [0, bankGroupsPerRank). */
    int
    groupInRank(int bank) const
    {
        return (bank % banksPerRank()) / banksPerGroup();
    }

    /**
     * Globally unique bank-group id of @p bank (rank-qualified), so two
     * banks share an id iff they share both rank and group. Used for the
     * tCCD_S/tCCD_L split: commands to the same id take the long spacing.
     */
    int
    groupOfBank(int bank) const
    {
        return (bank / banksPerRank()) * bankGroupsPerRank +
               groupInRank(bank);
    }

    bool refreshEnabled;  //!< Model periodic refresh (tREFI/tRFC)

    /**
     * The baseline configuration of Table 3 — derived from
     * protocols::ddr2_800(). Uncontended round-trip latencies come out at
     * ~200/275/350 cycles for row hit / closed / conflict, close to the
     * paper's quoted 200/300/400 (the residual difference is the paper's
     * inclusion of additional command/decode overheads).
     */
    static TimingParams ddr2_800();

    /** Derived from protocols::ddr3_1333() (no paper experiment uses it). */
    static TimingParams ddr3_1333();
};

} // namespace tcm::dram
