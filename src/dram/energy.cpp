#include "dram/energy.hpp"

#include <algorithm>

namespace tcm::dram {

EnergyParams
EnergyParams::forGeneration(Generation generation)
{
    EnergyParams p; // DDR2 (1.8 V) baseline
    // Rough V^2 derating: 1.5 V / 1.8 V and 1.2 V / 1.8 V squared.
    double scale = 1.0;
    switch (generation) {
      case Generation::Ddr2:
        return p;
      case Generation::Ddr3:
        scale = (1.5 * 1.5) / (1.8 * 1.8);
        break;
      case Generation::Ddr4:
        scale = (1.2 * 1.2) / (1.8 * 1.8);
        break;
    }
    p.eActPre *= scale;
    p.eRead *= scale;
    p.eWrite *= scale;
    p.eRefresh *= scale;
    p.pBackgroundActive *= scale;
    p.pBackgroundIdle *= scale;
    return p;
}

double
EnergyBreakdown::averageMw(Cycle cycles, double cyclesPerNs) const
{
    if (cycles == 0)
        return 0.0;
    double seconds = static_cast<double>(cycles) / (cyclesPerNs * 1e9);
    // pJ / s = pW; convert to mW.
    return totalPj() / seconds * 1e-9;
}

double
EnergyBreakdown::perAccessPj(const CommandCounts &counts) const
{
    std::uint64_t accesses = counts.reads + counts.writes;
    if (accesses == 0)
        return 0.0;
    return totalPj() / static_cast<double>(accesses);
}

EnergyBreakdown
computeEnergy(const EnergyParams &params, const CommandCounts &counts,
              Cycle elapsed, int banksPerChannel, double cyclesPerNs)
{
    EnergyBreakdown e;
    e.activatePj = params.eActPre * static_cast<double>(counts.activates);
    e.readPj = params.eRead * static_cast<double>(counts.reads);
    e.writePj = params.eWrite * static_cast<double>(counts.writes);
    e.refreshPj = params.eRefresh * static_cast<double>(counts.refreshes);

    // Background: the (banks x elapsed) cycle budget splits into busy
    // cycles (active power) and the rest (standby power).
    double budget = static_cast<double>(elapsed) * banksPerChannel;
    double busy =
        std::min(static_cast<double>(counts.bankBusyCycles), budget);
    double idle = budget - busy;
    double cycle_seconds = 1.0 / (cyclesPerNs * 1e9);
    // mW * s = mJ = 1e9 pJ; divide the DIMM background power evenly
    // across banks so the budget accounting stays per-bank.
    double active_pj_per_bank_cycle =
        params.pBackgroundActive / banksPerChannel * cycle_seconds * 1e9;
    double idle_pj_per_bank_cycle =
        params.pBackgroundIdle / banksPerChannel * cycle_seconds * 1e9;
    e.backgroundPj = busy * active_pj_per_bank_cycle +
                     idle * idle_pj_per_bank_cycle;
    return e;
}

} // namespace tcm::dram
