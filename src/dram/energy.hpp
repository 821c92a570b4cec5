/**
 * @file
 * DRAM energy accounting in the DRAMSim/DRAMPower style: per-command
 * energies plus background power, driven by command counts.
 *
 * The constants are 1Gb-x8 DIMM ballparks derived from the Micron power
 * calculators (IDD0/IDD4/IDD5 windows, eight chips per DIMM), scaled per
 * generation by forGeneration(). They are deliberately round figures:
 * this model ranks scheduler energy behaviour (row hits vs conflicts,
 * refresh overhead), it does not claim
 * millijoule-accurate absolute numbers.
 */

#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "dram/timing.hpp"

namespace tcm::dram {

/** Command counts over a measurement window (one channel). */
struct CommandCounts
{
    std::uint64_t activates = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t bankBusyCycles = 0;
};

/** Per-command energies (picojoules) and background power (milliwatts). */
struct EnergyParams
{
    double eActPre = 15'000.0;  //!< one ACT/PRE pair (row cycle)
    double eRead = 10'000.0;    //!< one column read burst
    double eWrite = 11'000.0;   //!< one column write burst
    double eRefresh = 35'000.0; //!< one all-bank refresh
    double pBackgroundActive = 750.0; //!< mW while banks are busy
    double pBackgroundIdle = 400.0;   //!< mW otherwise (standby)

    /** DDR2-800 DIMM defaults (see file comment). */
    static EnergyParams ddr2_800() { return EnergyParams{}; }

    /**
     * Generation-scaled parameters: each DDR generation dropped the core
     * voltage (1.8 V -> 1.5 V -> 1.2 V), cutting both dynamic and
     * background power roughly with V^2.
     */
    static EnergyParams forGeneration(Generation generation);
};

/** Energy breakdown for one channel over a measurement window. */
struct EnergyBreakdown
{
    double activatePj = 0.0;
    double readPj = 0.0;
    double writePj = 0.0;
    double refreshPj = 0.0;
    double backgroundPj = 0.0;

    double
    totalPj() const
    {
        return activatePj + readPj + writePj + refreshPj + backgroundPj;
    }

    /**
     * Average power in milliwatts over @p cycles CPU cycles at
     * @p cyclesPerNs CPU cycles per nanosecond.
     */
    double averageMw(Cycle cycles, double cyclesPerNs) const;

    /** Energy per serviced column command (pJ/access). */
    double perAccessPj(const CommandCounts &counts) const;
};

/**
 * Compute the energy breakdown implied by @p counts over @p elapsed CPU
 * cycles. Background power is split by bank state: bankBusyCycles of the
 * window's (banks x cycles) budget at active power, the rest at standby
 * power.
 *
 * @param banksPerChannel number of banks behind the controller
 * @param cyclesPerNs CPU cycles per nanosecond (TimingParams::cyclesPerNs)
 */
EnergyBreakdown computeEnergy(const EnergyParams &params,
                              const CommandCounts &counts, Cycle elapsed,
                              int banksPerChannel, double cyclesPerNs);

} // namespace tcm::dram
