/**
 * @file
 * Unit tests for the DRAM timing model: protocol specs, bank/rank/channel
 * state machines, bank-group constraints, and the address interleave.
 */

#include <gtest/gtest.h>

#include "dram/address.hpp"
#include "dram/bank.hpp"
#include "dram/channel.hpp"
#include "dram/protocol.hpp"
#include "dram/rank.hpp"
#include "dram/timing.hpp"

using namespace tcm;
using namespace tcm::dram;

namespace {

TimingParams
noRefreshTiming()
{
    TimingParams t = TimingParams::ddr2_800();
    t.refreshEnabled = false;
    return t;
}

} // namespace

// ---------------------------------------------------------------------------
// TimingParams
// ---------------------------------------------------------------------------

TEST(Timing, NsConversionRoundsAtFiveGigahertz)
{
    TimingParams t = TimingParams::ddr2_800();
    ASSERT_EQ(t.cyclesPerNs, 5.0);
    EXPECT_EQ(t.ns(15.0), 75u);
    EXPECT_EQ(t.ns(2.5), 13u);  // 12.5 rounds up
    EXPECT_EQ(t.ns(10.0), 50u);
    EXPECT_EQ(t.ns(0.0), 0u);
}

TEST(Timing, Ddr2BaselineMatchesTableThree)
{
    TimingParams t = TimingParams::ddr2_800();
    EXPECT_EQ(t.tCL, 75u);
    EXPECT_EQ(t.tRCD, 75u);
    EXPECT_EQ(t.tRP, 75u);
    EXPECT_EQ(t.tBURST, 50u);
    EXPECT_EQ(t.banksPerChannel, 4);
    EXPECT_EQ(t.colsPerRow, 64); // 2 KB row / 32 B blocks
    EXPECT_EQ(t.tRC, t.tRAS + t.tRP);
}

// ---------------------------------------------------------------------------
// Bank state machine
// ---------------------------------------------------------------------------

TEST(Bank, StartsPrechargedAndActivatable)
{
    TimingParams t = noRefreshTiming();
    Bank bank(t);
    EXPECT_TRUE(bank.precharged());
    EXPECT_EQ(bank.actAllowedAt(), 0u);
    // A precharged bank takes an ACT and nothing else.
    Channel ch(t);
    EXPECT_EQ(ch.earliestIssue(CommandKind::Read, 0), kCycleNever);
    EXPECT_EQ(ch.earliestIssue(CommandKind::Write, 0), kCycleNever);
    EXPECT_EQ(ch.earliestIssue(CommandKind::Precharge, 0), kCycleNever);
}

TEST(Bank, ActivateOpensRowAfterTrcd)
{
    TimingParams t = noRefreshTiming();
    Bank bank(t);
    bank.activate(100, 7);
    EXPECT_EQ(bank.openRow(), 7);
    EXPECT_FALSE(bank.precharged()); // a second ACT needs a PRE first
    EXPECT_EQ(bank.rdAllowedAt(), 100 + t.tRCD);
    EXPECT_EQ(bank.wrAllowedAt(), 100 + t.tRCD);
}

TEST(Bank, PrechargeRespectsTras)
{
    TimingParams t = noRefreshTiming();
    Bank bank(t);
    bank.activate(0, 3);
    EXPECT_EQ(bank.preAllowedAt(), t.tRAS);
    bank.precharge(t.tRAS);
    EXPECT_TRUE(bank.precharged());
    EXPECT_EQ(bank.actAllowedAt(), t.tRAS + t.tRP);
}

TEST(Bank, ReadPushesPrechargeOutByTrtp)
{
    TimingParams t = noRefreshTiming();
    Bank bank(t);
    bank.activate(0, 1);
    Cycle rd_at = t.tRAS; // read issued late: tRTP now dominates tRAS
    bank.read(rd_at);
    EXPECT_EQ(bank.preAllowedAt(), rd_at + t.tRTP);
}

TEST(Bank, WriteRecoveryBlocksPrecharge)
{
    TimingParams t = noRefreshTiming();
    Bank bank(t);
    bank.activate(0, 1);
    Cycle wr_at = t.tRAS;
    bank.write(wr_at);
    Cycle data_end = wr_at + t.tCWL + t.tBURST;
    EXPECT_EQ(bank.preAllowedAt(), data_end + t.tWR);
}

TEST(Bank, SameBankActToActRespectsTrc)
{
    TimingParams t = noRefreshTiming();
    Bank bank(t);
    bank.activate(0, 1);
    bank.read(t.tRCD);
    bank.precharge(t.tRAS);
    // Even though tRP has elapsed, tRC must also hold.
    Cycle trp_done = t.tRAS + t.tRP;
    EXPECT_GE(trp_done, t.tRC); // with DDR2-800, tRC == tRAS + tRP
    EXPECT_EQ(bank.actAllowedAt(), t.tRC);
}

TEST(Bank, ActivateOccupancyIsTrcd)
{
    TimingParams t = noRefreshTiming();
    Bank bank(t);
    EXPECT_EQ(bank.activate(0, 1), t.tRCD);
    EXPECT_EQ(bank.read(t.tRCD), t.tBURST);
    EXPECT_EQ(bank.precharge(t.tRAS + t.tRTP + 1000), t.tRP);
}

TEST(Bank, RefreshBlocksActivateForTrfc)
{
    TimingParams t = noRefreshTiming();
    Bank bank(t);
    bank.refresh(500);
    EXPECT_EQ(bank.actAllowedAt(), 500 + t.tRFC);
}

// ---------------------------------------------------------------------------
// Rank constraints
// ---------------------------------------------------------------------------

TEST(Rank, TrrdSeparatesActivates)
{
    TimingParams t = noRefreshTiming();
    Rank rank(t);
    EXPECT_EQ(rank.earliestActivate(0), 0u);
    rank.recordActivate(0, 0);
    EXPECT_EQ(rank.earliestActivate(0), t.tRRD_L);
}

TEST(Rank, FourActivateWindowEnforced)
{
    TimingParams t = noRefreshTiming();
    Rank rank(t);
    Cycle now = 0;
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(rank.earliestActivate(0), now);
        rank.recordActivate(now, 0);
        now += t.tRRD_L;
    }
    // The fifth ACT must wait until tFAW after the first.
    ASSERT_GT(t.tFAW, now);
    EXPECT_EQ(rank.earliestActivate(0), t.tFAW);
}

TEST(Rank, WriteToReadTurnaround)
{
    TimingParams t = noRefreshTiming();
    Rank rank(t);
    rank.recordWrite(100);
    Cycle ready = 100 + t.tCWL + t.tBURST + t.tWTR;
    EXPECT_EQ(rank.earliestRead(), ready);
}

// ---------------------------------------------------------------------------
// Channel: buses and composition
// ---------------------------------------------------------------------------

TEST(Channel, CommandBusSerializesCommands)
{
    TimingParams t = noRefreshTiming();
    Channel ch(t);
    ASSERT_TRUE(ch.canIssue(CommandKind::Activate, 0, 0));
    ch.issue(CommandKind::Activate, 0, 5, 0);
    // The command bus is busy for one DRAM clock after any command.
    EXPECT_FALSE(ch.cmdBusFree(t.tCK - 1));
    EXPECT_TRUE(ch.cmdBusFree(t.tCK));
    // An ACT to another bank additionally waits out rank-level tRRD.
    EXPECT_FALSE(ch.canIssue(CommandKind::Activate, 1, t.tCK));
    EXPECT_FALSE(ch.canIssue(CommandKind::Activate, 1, t.tRRD_L - 1));
    EXPECT_TRUE(ch.canIssue(CommandKind::Activate, 1, t.tRRD_L));
}

TEST(Channel, DataBusSerializesBursts)
{
    TimingParams t = noRefreshTiming();
    Channel ch(t);
    ch.issue(CommandKind::Activate, 0, 5, 0);
    ch.issue(CommandKind::Activate, 1, 9, t.tRRD_L);
    Cycle rd1 = t.tRCD;
    ASSERT_TRUE(ch.canIssue(CommandKind::Read, 0, rd1));
    IssueResult r1 = ch.issue(CommandKind::Read, 0, 5, rd1);
    EXPECT_EQ(r1.dataStart, rd1 + t.tCL);
    EXPECT_EQ(r1.dataEnd, rd1 + t.tCL + t.tBURST);
    // A read to the other bank whose data would overlap must wait.
    Cycle rd2 = rd1 + t.tCCD_L;
    EXPECT_FALSE(ch.canIssue(CommandKind::Read, 1, rd2));
    Cycle ok = r1.dataEnd - t.tCL;
    EXPECT_TRUE(ch.canIssue(CommandKind::Read, 1, ok));
}

TEST(Channel, RefreshRequiresRankPrecharged)
{
    TimingParams t = noRefreshTiming();
    Channel ch(t);
    ch.issue(CommandKind::Activate, 2, 1, 0);
    EXPECT_FALSE(ch.canIssue(CommandKind::Refresh, 0, t.tCK));
    Cycle pre_at = t.tRAS;
    ch.issue(CommandKind::Precharge, 2, kNoRow, pre_at);
    EXPECT_TRUE(ch.canIssue(CommandKind::Refresh, 0, pre_at + t.tRP));
    IssueResult r = ch.issue(CommandKind::Refresh, 0, kNoRow, pre_at + t.tRP);
    EXPECT_EQ(r.occupancy, t.tRFC);
    // The refreshed rank's banks are locked out for tRFC.
    EXPECT_FALSE(
        ch.canIssue(CommandKind::Activate, 0, pre_at + t.tRP + t.tRFC - 1));
    EXPECT_TRUE(
        ch.canIssue(CommandKind::Activate, 0, pre_at + t.tRP + t.tRFC));
}

TEST(Channel, DualRankConstraintsAreIndependent)
{
    TimingParams t = noRefreshTiming();
    t.banksPerChannel = 8;
    t.ranksPerChannel = 2;
    Channel ch(t);
    ASSERT_EQ(ch.numRanks(), 2);
    ASSERT_EQ(ch.rankOf(3), 0);
    ASSERT_EQ(ch.rankOf(4), 1);

    // Saturate rank 0's four-activate window.
    Cycle now = 0;
    for (BankId b = 0; b < 4; ++b) {
        ASSERT_TRUE(ch.canIssue(CommandKind::Activate, b, now));
        ch.issue(CommandKind::Activate, b, 1, now);
        now += t.tRRD_L;
    }
    // Rank 0 is tFAW-blocked, but rank 1 can activate immediately.
    EXPECT_FALSE(ch.canIssue(CommandKind::Activate, 0, now));
    EXPECT_TRUE(ch.canIssue(CommandKind::Activate, 4, now));
}

TEST(Channel, RankSwitchAddsTrtrsOnDataBus)
{
    TimingParams t = noRefreshTiming();
    t.banksPerChannel = 8;
    t.ranksPerChannel = 2;
    Channel ch(t);
    ch.issue(CommandKind::Activate, 0, 1, 0);          // rank 0
    ch.issue(CommandKind::Activate, 4, 1, t.tRRD_L);   // rank 1
    Cycle rd1 = t.tRCD;
    ch.issue(CommandKind::Read, 0, 1, rd1);
    Cycle data_end = rd1 + t.tCL + t.tBURST;
    // Same-rank read could start once its data slot clears; a rank
    // switch must additionally wait tRTRS.
    Cycle same_rank_ok = data_end - t.tCL;
    EXPECT_FALSE(ch.canIssue(CommandKind::Read, 4, same_rank_ok));
    EXPECT_TRUE(
        ch.canIssue(CommandKind::Read, 4, same_rank_ok + t.tRTRS));
}

TEST(Channel, RefreshOfOneRankLeavesOtherUsable)
{
    TimingParams t = noRefreshTiming();
    t.banksPerChannel = 8;
    t.ranksPerChannel = 2;
    Channel ch(t);
    ch.issue(CommandKind::Refresh, 0, kNoRow, 0); // refresh rank 0
    // Rank 0 locked for tRFC; rank 1 activates right after the cmd bus.
    EXPECT_FALSE(ch.canIssue(CommandKind::Activate, 0, t.tCK));
    EXPECT_TRUE(ch.canIssue(CommandKind::Activate, 4, t.tCK));
}

TEST(Channel, UncontendedRowHitLatencyNearPaper)
{
    // Row hit: RD at t, data done at t + tCL + tBURST. With the
    // controller transport delays (40 + 35) the paper quotes ~200 cycles
    // end to end; the DRAM part is tCL + tBURST = 125.
    TimingParams t = noRefreshTiming();
    Cycle dram_part = t.tCL + t.tBURST;
    Cycle total = t.cpuToMcDelay + dram_part + t.mcToCpuDelay;
    EXPECT_EQ(total, 200u);
    // Closed bank adds tRCD; conflict adds tRP + tRCD.
    EXPECT_EQ(total + t.tRCD, 275u);
    EXPECT_EQ(total + t.tRP + t.tRCD, 350u);
}

TEST(Timing, Ddr3PresetIsFasterAndWider)
{
    TimingParams d2 = TimingParams::ddr2_800();
    TimingParams d3 = TimingParams::ddr3_1333();
    EXPECT_LT(d3.tCL, d2.tCL);
    EXPECT_LT(d3.tBURST, d2.tBURST);
    EXPECT_EQ(d3.banksPerChannel, 8);
    EXPECT_EQ(d3.tRC, d3.tRAS + d3.tRP);
}

TEST(Bank, AutoPrechargeClosesRowAfterConstraints)
{
    TimingParams t = noRefreshTiming();
    Bank bank(t);
    bank.activate(0, 3);
    bank.read(t.tRCD);
    bank.autoPrecharge();
    EXPECT_TRUE(bank.precharged());
    // Next ACT waits for the implicit precharge: preAllowedAt
    // (tRAS-bound here) + tRP.
    EXPECT_EQ(bank.actAllowedAt(), t.tRAS + t.tRP);
}

// ---------------------------------------------------------------------------
// Address map
// ---------------------------------------------------------------------------

TEST(AddressMap, RoundTripsAllFields)
{
    TimingParams t = noRefreshTiming();
    AddressMap map(t, 4);
    Coord c{3, 2, 1234, 17};
    EXPECT_EQ(map.decode(map.encode(c)), c);
}

TEST(AddressMap, ConsecutiveBlocksWalkChannelsThenBanks)
{
    TimingParams t = noRefreshTiming();
    AddressMap map(t, 4);
    Coord c0 = map.decode(0);
    Coord c1 = map.decode(32);
    Coord c4 = map.decode(32 * 4);
    EXPECT_EQ(c0.channel, 0);
    EXPECT_EQ(c1.channel, 1);
    EXPECT_EQ(c4.channel, 0);
    EXPECT_EQ(c4.bank, c0.bank + 1);
}

TEST(AddressMap, CapacityMatchesGeometry)
{
    TimingParams t = noRefreshTiming();
    AddressMap map(t, 4);
    std::uint64_t expect = 4ull * 4 * 16384 * 64 * 32;
    EXPECT_EQ(map.capacityBytes(), expect);
}

TEST(AddressMap, DecodeStaysInBounds)
{
    TimingParams t = noRefreshTiming();
    AddressMap map(t, 4);
    for (std::uint64_t addr = 0; addr < map.capacityBytes();
         addr += map.capacityBytes() / 97) {
        Coord c = map.decode(addr);
        EXPECT_GE(c.channel, 0);
        EXPECT_LT(c.channel, 4);
        EXPECT_GE(c.bank, 0);
        EXPECT_LT(c.bank, t.banksPerChannel);
        EXPECT_GE(c.row, 0);
        EXPECT_LT(c.row, t.rowsPerBank);
        EXPECT_GE(c.col, 0);
        EXPECT_LT(c.col, t.colsPerRow);
    }
}

// ---------------------------------------------------------------------------
// Protocol registry and derivation
// ---------------------------------------------------------------------------

class ProtocolSuite : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ProtocolSuite, PresetValidatesAndDerivesConsistently)
{
    ProtocolLookup lookup = protocolByName(GetParam());
    ASSERT_TRUE(lookup.ok) << lookup.error;
    const ProtocolSpec &spec = lookup.spec;
    EXPECT_EQ(spec.validate(), "");

    TimingParams t = spec.derive();
    EXPECT_EQ(t.protocol, spec.name);
    EXPECT_GT(t.tCK, 0u);
    EXPECT_GT(t.tBURST, 0u);
    EXPECT_EQ(t.banksPerChannel, spec.bankGroupsPerRank *
                                     spec.banksPerGroup *
                                     spec.ranksPerChannel);
    EXPECT_EQ(t.bankGroupsPerRank, spec.bankGroupsPerRank);
    EXPECT_EQ(t.banksPerGroup(), spec.banksPerGroup);
    // The long constraints dominate their short split.
    EXPECT_GE(t.tCCD_L, t.tCCD_S);
    EXPECT_GE(t.tRRD_L, t.tRRD_S);
    // Single column-spacing register validity: two short gaps cover a
    // long one.
    EXPECT_GE(2 * t.tCCD_S, t.tCCD_L);
    // Row cycle identity holds (explicit tRC never undercuts it).
    EXPECT_GE(t.tRC, t.tRAS);
}

TEST_P(ProtocolSuite, DatasheetMaxRuleApplies)
{
    ProtocolLookup lookup = protocolByName(GetParam());
    ASSERT_TRUE(lookup.ok);
    const ProtocolSpec &spec = lookup.spec;
    for (const NamedParam &p : spec.table()) {
        double ns = spec.effectiveNs(p.value);
        EXPECT_GE(ns, p.value.ns) << p.name;
        EXPECT_GE(ns, p.value.ck * spec.tCkNs - 1e-9) << p.name;
    }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolSuite,
                         ::testing::ValuesIn(protocolNames()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

TEST(Protocol, UnknownNameGivesStructuredError)
{
    ProtocolLookup lookup = protocolByName("ddr9-9000");
    EXPECT_FALSE(lookup.ok);
    EXPECT_NE(lookup.error.find("unknown DRAM protocol 'ddr9-9000'"),
              std::string::npos)
        << lookup.error;
    // The error names every registered protocol.
    for (const std::string &name : protocolNames())
        EXPECT_NE(lookup.error.find(name), std::string::npos)
            << lookup.error;
}

TEST(Protocol, Ddr2DerivationMatchesLegacyPreset)
{
    // The seed repo hand-wrote these numbers; every golden trace assumes
    // them. The spec-derived block must reproduce them bit-for-bit.
    TimingParams t = protocols::ddr2_800().derive();
    EXPECT_EQ(t.tCK, 13u);
    EXPECT_EQ(t.tCL, 75u);
    EXPECT_EQ(t.tCWL, 63u);
    EXPECT_EQ(t.tRCD, 75u);
    EXPECT_EQ(t.tRP, 75u);
    EXPECT_EQ(t.tRAS, 225u);
    EXPECT_EQ(t.tRC, 300u);
    EXPECT_EQ(t.tBURST, 50u);
    EXPECT_EQ(t.tCCD_S, 25u);
    EXPECT_EQ(t.tCCD_L, 25u);
    EXPECT_EQ(t.tRRD_S, 38u);
    EXPECT_EQ(t.tRRD_L, 38u);
    EXPECT_EQ(t.tWR, 75u);
    EXPECT_EQ(t.tWTR, 38u);
    EXPECT_EQ(t.tRTP, 38u);
    EXPECT_EQ(t.tFAW, 188u);
    EXPECT_EQ(t.tRTRS, 25u);
    EXPECT_EQ(t.tREFI, 39000u);
    EXPECT_EQ(t.tRFC, 638u);
    EXPECT_EQ(t.banksPerChannel, 4);
    EXPECT_EQ(t.ranksPerChannel, 1);
    EXPECT_EQ(t.bankGroupsPerRank, 1);
}

TEST(Protocol, ValidationRejectsBadSpecs)
{
    ProtocolSpec s = protocols::ddr4_2400();
    s.tCCD_L = {0.0, 2}; // below tCCD_S (4 ck)
    EXPECT_NE(s.validate().find("tCCD_L"), std::string::npos);

    s = protocols::ddr4_2400();
    s.tCCD_S = {0.0, 2}; // 2*2 < 6: single-register premise broken
    EXPECT_NE(s.validate().find("2*tCCD_S"), std::string::npos);

    s = protocols::ddr2_800();
    s.tCkNs = 0.0;
    EXPECT_NE(s.validate().find("tCK"), std::string::npos);

    s = protocols::ddr2_800();
    s.tRAS = {-1.0, 0};
    EXPECT_NE(s.validate().find("tRAS"), std::string::npos);
}

// ---------------------------------------------------------------------------
// DDR4 bank groups
// ---------------------------------------------------------------------------

namespace {

TimingParams
ddr4NoRefresh()
{
    TimingParams t = protocols::ddr4_2400().derive();
    t.refreshEnabled = false;
    return t;
}

} // namespace

TEST(BankGroups, GeometryHelpersPartitionBanks)
{
    TimingParams t = ddr4NoRefresh();
    ASSERT_EQ(t.bankGroupsPerRank, 4);
    ASSERT_EQ(t.banksPerGroup(), 4);
    // Banks 0-3 are group 0, 4-7 group 1, ...
    EXPECT_EQ(t.groupInRank(0), 0);
    EXPECT_EQ(t.groupInRank(3), 0);
    EXPECT_EQ(t.groupInRank(4), 1);
    EXPECT_EQ(t.groupInRank(15), 3);
    EXPECT_EQ(t.groupOfBank(15), 3);
}

TEST(BankGroups, SameGroupColumnsWaitTccdLong)
{
    TimingParams t = ddr4NoRefresh();
    ASSERT_LT(t.tCCD_S, t.tCCD_L);
    Channel ch(t);
    ch.issue(CommandKind::Activate, 0, 1, 0); // group 0
    Cycle act2 = t.tRRD_L; // same-group activates need tRRD_L
    ch.issue(CommandKind::Activate, 1, 1, act2); // same group 0
    Cycle rd1 = 1000; // all banks ready
    ch.issue(CommandKind::Read, 0, 1, rd1);
    // Same group: tCCD_S is not enough, tCCD_L is.
    EXPECT_FALSE(ch.canIssue(CommandKind::Read, 1, rd1 + t.tCCD_S));
    EXPECT_TRUE(ch.canIssue(CommandKind::Read, 1, rd1 + t.tCCD_L));
    EXPECT_EQ(ch.earliestIssue(CommandKind::Read, 1), rd1 + t.tCCD_L);
}

TEST(BankGroups, CrossGroupColumnsWaitOnlyTccdShort)
{
    TimingParams t = ddr4NoRefresh();
    Channel ch(t);
    ch.issue(CommandKind::Activate, 0, 1, 0);    // group 0
    ch.issue(CommandKind::Activate, 4, 1, t.tRRD_S); // group 1
    Cycle rd1 = 1000;
    ch.issue(CommandKind::Read, 0, 1, rd1);
    // Cross group: tCCD_S suffices (data bus permitting; tBURST at
    // DDR4-2400 is well under tCCD_S * tCK here).
    EXPECT_FALSE(ch.canIssue(CommandKind::Read, 4, rd1 + t.tCCD_S - 1));
    EXPECT_TRUE(ch.canIssue(CommandKind::Read, 4, rd1 + t.tCCD_S));
}

TEST(BankGroups, SameGroupActivatesWaitTrrdLong)
{
    TimingParams t = ddr4NoRefresh();
    ASSERT_LT(t.tRRD_S, t.tRRD_L);
    Channel ch(t);
    ch.issue(CommandKind::Activate, 0, 1, 0); // group 0
    // Same group (bank 1): only legal after tRRD_L.
    EXPECT_FALSE(ch.canIssue(CommandKind::Activate, 1, t.tRRD_L - 1));
    EXPECT_TRUE(ch.canIssue(CommandKind::Activate, 1, t.tRRD_L));
    EXPECT_EQ(ch.earliestIssue(CommandKind::Activate, 1), t.tRRD_L);
    // Cross group (bank 4): legal at tRRD_S already.
    EXPECT_TRUE(ch.canIssue(CommandKind::Activate, 4, t.tRRD_S));
    EXPECT_EQ(ch.earliestIssue(CommandKind::Activate, 4), t.tRRD_S);
}

TEST(BankGroups, Ddr2SplitsCollapseToClassicConstraints)
{
    TimingParams t = TimingParams::ddr2_800();
    EXPECT_EQ(t.bankGroupsPerRank, 1);
    EXPECT_EQ(t.tCCD_S, t.tCCD_L);
    EXPECT_EQ(t.tRRD_S, t.tRRD_L);
    // Every bank shares the single group, so the "same group" long
    // spacing is the only spacing — the legacy behavior.
    for (int b = 0; b < t.banksPerChannel; ++b)
        EXPECT_EQ(t.groupOfBank(b), 0);
}
