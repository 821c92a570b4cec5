#include "dram/protocol.hpp"

#include <algorithm>
#include <cmath>

namespace tcm::dram {

double
ProtocolSpec::effectiveNs(const ProtocolParam &p) const
{
    return std::max(p.ns, static_cast<double>(p.ck) * tCkNs);
}

Cycle
ProtocolSpec::cycles(const ProtocolParam &p) const
{
    return static_cast<Cycle>(std::llround(effectiveNs(p) * cpuGhz));
}

std::vector<NamedParam>
ProtocolSpec::table() const
{
    return {
        {"tCL", tCL},       {"tCWL", tCWL},     {"tRCD", tRCD},
        {"tRP", tRP},       {"tRAS", tRAS},     {"tRC", tRC},
        {"tCCD_S", tCCD_S}, {"tCCD_L", tCCD_L}, {"tRRD_S", tRRD_S},
        {"tRRD_L", tRRD_L}, {"tWR", tWR},       {"tWTR", tWTR},
        {"tRTP", tRTP},     {"tFAW", tFAW},     {"tRTRS", tRTRS},
        {"tREFI", tREFI},   {"tRFC", tRFC},
    };
}

std::string
ProtocolSpec::validate() const
{
    if (name.empty())
        return "protocol spec has no name";
    if (tCkNs <= 0.0)
        return name + ": tCK must be positive";
    if (cpuGhz <= 0.0)
        return name + ": cpuGhz must be positive";
    if (burstLength <= 0 || burstLength % 2 != 0)
        return name + ": burstLength must be a positive even count";
    if (bankGroupsPerRank < 1 || banksPerGroup < 1 || ranksPerChannel < 1)
        return name + ": geometry counts must be at least 1";
    if (rowsPerBank < 1 || colsPerRow < 1)
        return name + ": rows/columns must be at least 1";
    for (const NamedParam &p : table())
        if (p.value.ns < 0.0 || p.value.ck < 0)
            return name + ": " + p.name + " must be non-negative";
    if (effectiveNs(tCCD_L) < effectiveNs(tCCD_S))
        return name + ": tCCD_L must be at least tCCD_S";
    if (effectiveNs(tRRD_L) < effectiveNs(tRRD_S))
        return name + ": tRRD_L must be at least tRRD_S";
    // The channel keeps one column-spacing register (last column command
    // + its group); that is only equivalent to per-group tracking when
    // two back-to-back short gaps already cover a long one.
    if (2.0 * effectiveNs(tCCD_S) < effectiveNs(tCCD_L))
        return name + ": 2*tCCD_S must cover tCCD_L "
                      "(single column-spacing register)";
    return {};
}

TimingParams
ProtocolSpec::derive() const
{
    TimingParams t{};
    t.protocol = name;
    t.generation = generation;
    t.cyclesPerNs = cpuGhz;
    t.tCK = t.ns(tCkNs);
    t.tCL = cycles(tCL);
    t.tCWL = cycles(tCWL);
    t.tRCD = cycles(tRCD);
    t.tRP = cycles(tRP);
    t.tRAS = cycles(tRAS);
    // tRC defaults to the row cycle identity tRAS + tRP when the table
    // leaves it unspecified.
    const bool hasTrc = tRC.ns > 0.0 || tRC.ck > 0;
    t.tRC = hasTrc ? cycles(tRC) : t.tRAS + t.tRP;
    t.tBURST = t.ns(static_cast<double>(burstLength) / 2.0 * tCkNs);
    t.tCCD_S = cycles(tCCD_S);
    t.tCCD_L = cycles(tCCD_L);
    t.tRRD_S = cycles(tRRD_S);
    t.tRRD_L = cycles(tRRD_L);
    t.tWR = cycles(tWR);
    t.tWTR = cycles(tWTR);
    t.tRTP = cycles(tRTP);
    t.tFAW = cycles(tFAW);
    t.tRTRS = cycles(tRTRS);
    t.tREFI = cycles(tREFI);
    t.tRFC = cycles(tRFC);
    t.cpuToMcDelay = cpuToMcDelay;
    t.mcToCpuDelay = mcToCpuDelay;
    t.bankGroupsPerRank = bankGroupsPerRank;
    t.ranksPerChannel = ranksPerChannel;
    t.banksPerChannel = bankGroupsPerRank * banksPerGroup * ranksPerChannel;
    t.rowsPerBank = rowsPerBank;
    t.colsPerRow = colsPerRow;
    t.refreshEnabled = refreshEnabled;
    return t;
}

namespace protocols {

ProtocolSpec
ddr2_800()
{
    ProtocolSpec s;
    s.name = "ddr2-800";
    s.generation = Generation::Ddr2;
    s.dataRateMTs = 800;
    s.tCkNs = 2.5;
    s.burstLength = 8; // BL8: 4 DRAM clocks, 10 ns on the data bus
    s.bankGroupsPerRank = 1;
    s.banksPerGroup = 4;
    s.ranksPerChannel = 1;
    s.rowsPerBank = 16384;
    s.colsPerRow = 64; // 2 KB row / 32 B blocks
    s.tCL = {15.0, 0};
    s.tCWL = {12.5, 0}; // tCL - tCK for DDR2
    s.tRCD = {15.0, 0};
    s.tRP = {15.0, 0};
    s.tRAS = {45.0, 0};
    s.tRC = {60.0, 0};
    s.tCCD_S = {0.0, 2}; // no bank groups: S == L == classic tCCD
    s.tCCD_L = {0.0, 2};
    s.tRRD_S = {7.5, 0};
    s.tRRD_L = {7.5, 0};
    s.tWR = {15.0, 0};
    s.tWTR = {7.5, 0};
    s.tRTP = {7.5, 0};
    s.tFAW = {37.5, 0};
    s.tRTRS = {0.0, 2};
    s.tREFI = {7800.0, 0};
    s.tRFC = {127.5, 0};
    return s;
}

ProtocolSpec
ddr3_1333()
{
    ProtocolSpec s;
    s.name = "ddr3-1333";
    s.generation = Generation::Ddr3;
    s.dataRateMTs = 1333;
    s.tCkNs = 1.5;
    s.burstLength = 8;
    s.bankGroupsPerRank = 1;
    s.banksPerGroup = 8;
    s.ranksPerChannel = 1;
    s.rowsPerBank = 16384;
    s.colsPerRow = 64;
    s.tCL = {13.5, 0}; // CL9
    s.tCWL = {10.5, 0};
    s.tRCD = {13.5, 0};
    s.tRP = {13.5, 0};
    s.tRAS = {36.0, 0};
    s.tRC = {49.5, 0};
    s.tCCD_S = {0.0, 4};
    s.tCCD_L = {0.0, 4};
    s.tRRD_S = {6.0, 4};
    s.tRRD_L = {6.0, 4};
    s.tWR = {15.0, 0};
    s.tWTR = {7.5, 4};
    s.tRTP = {7.5, 4};
    s.tFAW = {30.0, 0};
    s.tRTRS = {0.0, 2};
    s.tREFI = {7800.0, 0};
    s.tRFC = {160.0, 0};
    return s;
}

ProtocolSpec
ddr3_1600()
{
    ProtocolSpec s;
    s.name = "ddr3-1600";
    s.generation = Generation::Ddr3;
    s.dataRateMTs = 1600;
    s.tCkNs = 1.25;
    s.burstLength = 8;
    s.bankGroupsPerRank = 1;
    s.banksPerGroup = 8;
    s.ranksPerChannel = 1;
    s.rowsPerBank = 16384;
    s.colsPerRow = 64;
    s.tCL = {0.0, 11}; // CL11 (13.75 ns)
    s.tCWL = {0.0, 8};
    s.tRCD = {0.0, 11};
    s.tRP = {0.0, 11};
    s.tRAS = {35.0, 0};
    s.tRC = {};        // tRAS + tRP
    s.tCCD_S = {0.0, 4};
    s.tCCD_L = {0.0, 4};
    s.tRRD_S = {6.0, 4};
    s.tRRD_L = {6.0, 4};
    s.tWR = {15.0, 0};
    s.tWTR = {7.5, 4};
    s.tRTP = {7.5, 4};
    s.tFAW = {30.0, 0};
    s.tRTRS = {0.0, 2};
    s.tREFI = {7800.0, 0};
    s.tRFC = {160.0, 0};
    return s;
}

ProtocolSpec
ddr4_2400()
{
    ProtocolSpec s;
    s.name = "ddr4-2400";
    s.generation = Generation::Ddr4;
    s.dataRateMTs = 2400;
    s.tCkNs = 10.0 / 12.0; // 1200 MHz command clock
    s.burstLength = 8;
    s.bankGroupsPerRank = 4;
    s.banksPerGroup = 4;
    s.ranksPerChannel = 1;
    s.rowsPerBank = 32768;
    s.colsPerRow = 64;
    s.tCL = {0.0, 17}; // CL17 (14.17 ns)
    s.tCWL = {0.0, 12};
    s.tRCD = {0.0, 17};
    s.tRP = {0.0, 17};
    s.tRAS = {32.0, 0};
    s.tRC = {};        // tRAS + tRP
    s.tCCD_S = {0.0, 4}; // cross-group back-to-back columns
    s.tCCD_L = {0.0, 6}; // same-group spacing is genuinely longer
    s.tRRD_S = {3.3, 4};
    s.tRRD_L = {4.9, 4};
    s.tWR = {15.0, 0};
    s.tWTR = {7.5, 4};
    s.tRTP = {7.5, 4};
    s.tFAW = {21.0, 20};
    s.tRTRS = {0.0, 2};
    s.tREFI = {7800.0, 0};
    s.tRFC = {260.0, 0}; // 4 Gb device class
    return s;
}

} // namespace protocols

namespace {

using SpecFactory = ProtocolSpec (*)();

constexpr SpecFactory kRegistry[] = {
    protocols::ddr2_800,
    protocols::ddr3_1333,
    protocols::ddr3_1600,
    protocols::ddr4_2400,
};

std::string
vocabulary()
{
    std::string out;
    for (const SpecFactory &make : kRegistry) {
        if (!out.empty())
            out += ", ";
        out += make().name;
    }
    return out;
}

} // namespace

const std::vector<std::string> &
protocolNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const SpecFactory &make : kRegistry)
            v.push_back(make().name);
        return v;
    }();
    return names;
}

ProtocolLookup
protocolByName(const std::string &name)
{
    ProtocolLookup out;
    for (const SpecFactory &make : kRegistry) {
        ProtocolSpec spec = make();
        if (name == spec.name) {
            out.ok = true;
            out.spec = std::move(spec);
            return out;
        }
    }
    out.error = "unknown DRAM protocol '" + name +
                "'; valid names: " + vocabulary();
    return out;
}

} // namespace tcm::dram
