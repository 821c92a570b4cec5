/**
 * @file
 * Tests for the independent DDR2 protocol checker.
 *
 * Four layers:
 *  1. Negative unit tests: hand-crafted illegal command sequences, one
 *     per constraint, each asserting the violation carries the right
 *     constraint name. The checker needs these to be trusted — a
 *     validator that has never flagged anything proves nothing.
 *  2. Positive unit tests: legal sequences (including auto-precharge
 *     riders) must pass clean.
 *  3. Randomized cross-scheduler stress: every scheduler of the paper
 *     runs randomized workloads on randomized small configurations with
 *     the checker attached; zero violations required. Because the
 *     checker reports violations as *data* (never asserts), this
 *     audit holds even in builds where NDEBUG elides the DRAM model's
 *     own issue-path assertions.
 *  4. Boundary: on random legal command streams, the checker accepts
 *     each command at the engine's `Channel::earliestIssue` cycle and
 *     flags it one cycle earlier.
 */

#include <string>

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "dram/channel.hpp"
#include "dram/protocol.hpp"
#include "dram/protocol_checker.hpp"
#include "mem/controller.hpp"
#include "sched/factory.hpp"
#include "sim/simulator.hpp"
#include "workload/mixes.hpp"

using namespace tcm;
using dram::CommandKind;
using dram::Constraint;

namespace {

/** Feed hand-crafted events into a checker (rank derived from bank). */
struct Feeder
{
    dram::TimingParams timing;
    dram::ProtocolChecker checker;

    explicit Feeder(const dram::TimingParams &t,
                    dram::CheckerParams p = dram::CheckerParams{})
        : timing(t), checker(timing, p)
    {
    }

    void
    send(Cycle cycle, CommandKind kind, BankId bank, RowId row = kNoRow,
         bool autoPre = false)
    {
        dram::CommandEvent e;
        e.cycle = cycle;
        e.channel = 0;
        e.rank = bank / timing.banksPerRank();
        e.bank = bank;
        e.kind = kind;
        e.row = row;
        e.autoPre = autoPre;
        checker.onCommand(e);
    }
};

dram::TimingParams
dualRank()
{
    dram::TimingParams t = dram::TimingParams::ddr2_800();
    t.ranksPerChannel = 2;
    t.banksPerChannel = 8;
    return t;
}

dram::TimingParams
eightBank()
{
    dram::TimingParams t = dram::TimingParams::ddr2_800();
    t.banksPerChannel = 8;
    return t;
}

dram::TimingParams
ddr4()
{
    return dram::protocols::ddr4_2400().derive();
}

} // namespace

// ---------------------------------------------------------------------------
// Negative tests: every constraint must fire, with the right name.
// ---------------------------------------------------------------------------

TEST(CheckerNegative, CommandBusConflict)
{
    // Two ACTs 10 cycles apart (tCK = 13) to *different ranks*, so no
    // rank-level constraint muddies the verdict.
    Feeder f(dualRank());
    f.send(100, CommandKind::Activate, 0, 1);
    f.send(110, CommandKind::Activate, 4, 1);
    EXPECT_EQ(f.checker.countOf(Constraint::CmdBusConflict), 1u);
    EXPECT_EQ(f.checker.violationCount(), 1u);
    EXPECT_STREQ(dram::constraintName(Constraint::CmdBusConflict),
                 "cmd-bus");
}

TEST(CheckerNegative, ActivateWithRowOpen)
{
    Feeder f(dram::TimingParams::ddr2_800());
    f.send(100, CommandKind::Activate, 0, 1);
    f.send(500, CommandKind::Activate, 0, 2); // row 1 never precharged
    EXPECT_EQ(f.checker.countOf(Constraint::ActRowOpen), 1u);
}

TEST(CheckerNegative, ActBeforeTrpElapsed)
{
    // PRE at the earliest legal cycle (tRAS = 225), then ACT 50 cycles
    // later: tRP (75) not yet satisfied.
    Feeder f(dram::TimingParams::ddr2_800());
    f.send(100, CommandKind::Activate, 0, 1);
    f.send(325, CommandKind::Precharge, 0);
    f.send(375, CommandKind::Activate, 0, 2);
    EXPECT_GE(f.checker.countOf(Constraint::Trp), 1u);
    ASSERT_FALSE(f.checker.violations().empty());
    EXPECT_NE(f.checker.violations()[0].message.find("tR"),
              std::string::npos);
}

TEST(CheckerNegative, ActBeforeTrcElapsed)
{
    // An (illegally) early PRE lets the tRP bound pass while tRC
    // (300 from the first ACT) is still violated.
    Feeder f(dram::TimingParams::ddr2_800());
    f.send(100, CommandKind::Activate, 0, 1);
    f.send(150, CommandKind::Precharge, 0); // also flags tRAS
    f.send(250, CommandKind::Activate, 0, 2);
    EXPECT_EQ(f.checker.countOf(Constraint::Trc), 1u);
    EXPECT_EQ(f.checker.countOf(Constraint::Tras), 1u);
    EXPECT_EQ(f.checker.countOf(Constraint::Trp), 0u);
}

TEST(CheckerNegative, ReadBeforeTrcdElapsed)
{
    Feeder f(dram::TimingParams::ddr2_800());
    f.send(100, CommandKind::Activate, 0, 1);
    f.send(150, CommandKind::Read, 0, 1); // tRCD = 75, legal at 175
    EXPECT_EQ(f.checker.countOf(Constraint::Trcd), 1u);
    EXPECT_EQ(f.checker.violations()[0].earliestLegal, 175u);
}

TEST(CheckerNegative, ReadOnClosedBank)
{
    Feeder f(dram::TimingParams::ddr2_800());
    f.send(100, CommandKind::Read, 0, 1); // no ACT ever
    EXPECT_EQ(f.checker.countOf(Constraint::ColClosedBank), 1u);
    EXPECT_EQ(f.checker.violations()[0].earliestLegal, kCycleNever);
}

TEST(CheckerNegative, ReadWrongRow)
{
    Feeder f(dram::TimingParams::ddr2_800());
    f.send(100, CommandKind::Activate, 0, 1);
    f.send(200, CommandKind::Read, 0, 2); // row 1 is open
    EXPECT_EQ(f.checker.countOf(Constraint::ColWrongRow), 1u);
    EXPECT_EQ(f.checker.countOf(Constraint::ColClosedBank), 0u);
}

TEST(CheckerNegative, PrechargeBeforeTrasElapsed)
{
    Feeder f(dram::TimingParams::ddr2_800());
    f.send(100, CommandKind::Activate, 0, 1);
    f.send(200, CommandKind::Precharge, 0); // tRAS = 225, legal at 325
    EXPECT_EQ(f.checker.countOf(Constraint::Tras), 1u);
    EXPECT_EQ(f.checker.violationCount(), 1u);
}

TEST(CheckerNegative, PrechargeBeforeTrtpElapsed)
{
    Feeder f(dram::TimingParams::ddr2_800());
    f.send(100, CommandKind::Activate, 0, 1);
    f.send(400, CommandKind::Read, 0, 1);
    f.send(410, CommandKind::Precharge, 0); // tRTP = 38, legal at 438
    EXPECT_EQ(f.checker.countOf(Constraint::Trtp), 1u);
    EXPECT_EQ(f.checker.countOf(Constraint::Tras), 0u);
}

TEST(CheckerNegative, PrechargeBeforeWriteRecovery)
{
    Feeder f(dram::TimingParams::ddr2_800());
    f.send(100, CommandKind::Activate, 0, 1);
    f.send(400, CommandKind::Write, 0, 1);
    // Recovery completes at 400 + tCWL(63) + tBURST(50) + tWR(75) = 588.
    f.send(450, CommandKind::Precharge, 0);
    EXPECT_EQ(f.checker.countOf(Constraint::Twr), 1u);
    EXPECT_EQ(f.checker.violations()[0].earliestLegal, 588u);
}

TEST(CheckerNegative, ColumnBeforeTccdElapsed)
{
    Feeder f(dram::TimingParams::ddr2_800());
    f.send(100, CommandKind::Activate, 0, 1);
    f.send(200, CommandKind::Read, 0, 1);
    f.send(210, CommandKind::Read, 0, 1); // tCCD = 25, legal at 225
    EXPECT_GE(f.checker.countOf(Constraint::Tccd), 1u);
}

TEST(CheckerNegative, ActivateBeforeTrrdElapsed)
{
    Feeder f(dram::TimingParams::ddr2_800());
    f.send(100, CommandKind::Activate, 0, 1);
    f.send(120, CommandKind::Activate, 1, 1); // tRRD = 38, legal at 138
    EXPECT_EQ(f.checker.countOf(Constraint::Trrd), 1u);
    EXPECT_EQ(f.checker.violationCount(), 1u);
}

TEST(CheckerNegative, FifthActivateInsideTfaw)
{
    // Four ACTs spaced exactly tRRD-legal (40 >= 38), then a fifth that
    // satisfies tRRD but lands inside the rolling tFAW window
    // (oldest + 188 = 288 > 258).
    Feeder f(eightBank());
    f.send(100, CommandKind::Activate, 0, 1);
    f.send(140, CommandKind::Activate, 1, 1);
    f.send(180, CommandKind::Activate, 2, 1);
    f.send(220, CommandKind::Activate, 3, 1);
    f.send(258, CommandKind::Activate, 4, 1);
    EXPECT_EQ(f.checker.countOf(Constraint::Tfaw), 1u);
    EXPECT_EQ(f.checker.countOf(Constraint::Trrd), 0u);
    EXPECT_EQ(f.checker.violations()[0].earliestLegal, 288u);
}

TEST(CheckerNegative, ReadBeforeWriteToReadTurnaround)
{
    Feeder f(dram::TimingParams::ddr2_800());
    f.send(100, CommandKind::Activate, 0, 1);
    f.send(200, CommandKind::Write, 0, 1);
    // Turnaround completes at 200 + 63 + 50 + 38 = 351; data bus is free
    // from 313, so at 270 only tWTR is violated.
    f.send(270, CommandKind::Read, 0, 1);
    EXPECT_EQ(f.checker.countOf(Constraint::Twtr), 1u);
    EXPECT_EQ(f.checker.countOf(Constraint::DataBusConflict), 0u);
}

TEST(CheckerNegative, DataBusBurstOverlap)
{
    Feeder f(dram::TimingParams::ddr2_800());
    f.send(100, CommandKind::Activate, 0, 1);
    f.send(150, CommandKind::Activate, 1, 2);
    f.send(250, CommandKind::Read, 0, 1); // data [325, 375)
    f.send(290, CommandKind::Read, 1, 2); // data would start at 365
    EXPECT_EQ(f.checker.countOf(Constraint::DataBusConflict), 1u);
    EXPECT_EQ(f.checker.violationCount(), 1u);
}

TEST(CheckerNegative, RankSwitchNeedsTrtrsGap)
{
    // Back-to-back bursts are legal within a rank but need a tRTRS gap
    // across ranks: the same spacing that passes on one rank fails when
    // the second read comes from the other rank.
    Feeder f(dualRank());
    f.send(100, CommandKind::Activate, 0, 1);
    f.send(150, CommandKind::Activate, 4, 2);
    f.send(250, CommandKind::Read, 0, 1); // rank 0, data [325, 375)
    f.send(300, CommandKind::Read, 4, 2); // rank 1, start 375 < 375+tRTRS
    EXPECT_EQ(f.checker.countOf(Constraint::DataBusConflict), 1u);
}

TEST(CheckerNegative, PrechargeOnClosedBank)
{
    Feeder f(dram::TimingParams::ddr2_800());
    f.send(100, CommandKind::Precharge, 0);
    EXPECT_EQ(f.checker.countOf(Constraint::PreClosedBank), 1u);
}

TEST(CheckerNegative, RefreshWithRowOpen)
{
    Feeder f(dram::TimingParams::ddr2_800());
    f.send(100, CommandKind::Activate, 0, 1);
    f.send(500, CommandKind::Refresh, 0);
    EXPECT_EQ(f.checker.countOf(Constraint::RefRowOpen), 1u);
}

TEST(CheckerNegative, RefreshBeforeTrpElapsed)
{
    Feeder f(dram::TimingParams::ddr2_800());
    f.send(100, CommandKind::Activate, 0, 1);
    f.send(325, CommandKind::Precharge, 0);
    f.send(350, CommandKind::Refresh, 0); // tRP satisfied only at 400
    EXPECT_EQ(f.checker.countOf(Constraint::Trp), 1u);
    EXPECT_EQ(f.checker.countOf(Constraint::RefRowOpen), 0u);
}

TEST(CheckerNegative, ActivateInsideTrfc)
{
    Feeder f(dram::TimingParams::ddr2_800());
    f.send(100, CommandKind::Refresh, 0);
    f.send(300, CommandKind::Activate, 0, 1); // tRFC = 638, legal at 738
    EXPECT_EQ(f.checker.countOf(Constraint::Trfc), 1u);
}

TEST(CheckerNegative, BackToBackRefreshInsideTrfc)
{
    Feeder f(dram::TimingParams::ddr2_800());
    f.send(100, CommandKind::Refresh, 0);
    f.send(400, CommandKind::Refresh, 0);
    EXPECT_EQ(f.checker.countOf(Constraint::Trfc), 1u);
}

TEST(CheckerNegative, RefreshOverdueBetweenRefreshes)
{
    // Deadline factor 2.0: a rank must refresh within 2 * tREFI = 78000
    // cycles of the previous refresh (or of run start).
    Feeder f(dram::TimingParams::ddr2_800());
    f.send(100, CommandKind::Refresh, 0);
    f.send(80'000, CommandKind::Refresh, 0);
    EXPECT_EQ(f.checker.countOf(Constraint::RefreshOverdue), 1u);
    EXPECT_STREQ(dram::constraintName(Constraint::RefreshOverdue),
                 "tREFI-overdue");
}

TEST(CheckerNegative, RefreshOverdueAtEndOfRun)
{
    Feeder f(dram::TimingParams::ddr2_800());
    f.checker.observeChannel(0);
    f.send(100, CommandKind::Refresh, 0);
    f.checker.finalize(100'000); // last REF at 100, deadline 78100
    EXPECT_EQ(f.checker.countOf(Constraint::RefreshOverdue), 1u);
    f.checker.finalize(200'000); // idempotent
    EXPECT_EQ(f.checker.countOf(Constraint::RefreshOverdue), 1u);
}

TEST(CheckerNegative, NoRefreshObligationWhenDisabled)
{
    dram::TimingParams t = dram::TimingParams::ddr2_800();
    t.refreshEnabled = false;
    Feeder f(t);
    f.checker.observeChannel(0);
    f.send(100, CommandKind::Activate, 0, 1);
    f.checker.finalize(1'000'000);
    EXPECT_EQ(f.checker.countOf(Constraint::RefreshOverdue), 0u);
}

// ---------------------------------------------------------------------------
// DDR4 bank-group rules: the split constraints flag independently.
// ---------------------------------------------------------------------------

TEST(CheckerDdr4, CrossGroupColumnInsideTccdShort)
{
    dram::TimingParams t = ddr4();
    Feeder f(t);
    f.send(100, CommandKind::Activate, 0, 1);  // group 0
    f.send(100 + t.tRRD_S, CommandKind::Activate, 4, 1); // group 1
    f.send(400, CommandKind::Read, 0, 1);
    f.send(400 + t.tCCD_S - 1, CommandKind::Read, 4, 1);
    // Different groups: only the channel-wide short spacing fires.
    EXPECT_EQ(f.checker.countOf(Constraint::Tccd), 1u);
    EXPECT_EQ(f.checker.countOf(Constraint::TccdL), 0u);
}

TEST(CheckerDdr4, SameGroupColumnInsideTccdLong)
{
    dram::TimingParams t = ddr4();
    ASSERT_LT(t.tCCD_S, t.tCCD_L);
    Feeder f(t);
    f.send(100, CommandKind::Activate, 0, 1); // group 0
    f.send(100 + t.tRRD_L, CommandKind::Activate, 1, 1); // group 0
    f.send(400, CommandKind::Read, 0, 1);
    // Past tCCD_S but short of tCCD_L: only the long rule fires.
    f.send(400 + t.tCCD_L - 1, CommandKind::Read, 1, 1);
    EXPECT_EQ(f.checker.countOf(Constraint::Tccd), 0u);
    EXPECT_EQ(f.checker.countOf(Constraint::TccdL), 1u);
    EXPECT_STREQ(dram::constraintName(Constraint::TccdL), "tCCD_L");
}

TEST(CheckerDdr4, CrossGroupActivateInsideTrrdShort)
{
    dram::TimingParams t = ddr4();
    Feeder f(t);
    f.send(100, CommandKind::Activate, 0, 1); // group 0
    f.send(100 + t.tRRD_S - 1, CommandKind::Activate, 4, 1); // group 1
    EXPECT_EQ(f.checker.countOf(Constraint::Trrd), 1u);
    EXPECT_EQ(f.checker.countOf(Constraint::TrrdL), 0u);
}

TEST(CheckerDdr4, SameGroupActivateInsideTrrdLong)
{
    dram::TimingParams t = ddr4();
    ASSERT_LT(t.tRRD_S, t.tRRD_L);
    Feeder f(t);
    f.send(100, CommandKind::Activate, 0, 1); // group 0
    // Past tRRD_S but short of tRRD_L: only the long rule fires.
    f.send(100 + t.tRRD_L - 1, CommandKind::Activate, 1, 1);
    EXPECT_EQ(f.checker.countOf(Constraint::Trrd), 0u);
    EXPECT_EQ(f.checker.countOf(Constraint::TrrdL), 1u);
    EXPECT_STREQ(dram::constraintName(Constraint::TrrdL), "tRRD_L");
}

TEST(CheckerDdr4, LegalBankGroupInterleaveIsClean)
{
    dram::TimingParams t = ddr4();
    Feeder f(t);
    f.send(100, CommandKind::Activate, 0, 1);              // group 0
    f.send(100 + t.tRRD_S, CommandKind::Activate, 4, 1);   // group 1
    f.send(400, CommandKind::Read, 0, 1);
    f.send(400 + t.tCCD_S, CommandKind::Read, 4, 1); // cross-group short
    f.send(400 + t.tCCD_S + t.tCCD_L, CommandKind::Read, 0, 1);
    f.checker.finalize(1'000);
    EXPECT_EQ(f.checker.violationCount(), 0u) << f.checker.report();
}

// ---------------------------------------------------------------------------
// Positive tests: legal sequences pass clean.
// ---------------------------------------------------------------------------

TEST(CheckerPositive, LegalOpenPageSequenceIsClean)
{
    Feeder f(dram::TimingParams::ddr2_800());
    f.send(100, CommandKind::Activate, 0, 5);
    f.send(175, CommandKind::Read, 0, 5);  // tRCD met exactly
    f.send(225, CommandKind::Read, 0, 5);  // tCCD met, bursts abut
    f.send(300, CommandKind::Write, 0, 5); // write data starts at 363
    f.send(490, CommandKind::Precharge, 0); // recovery done at 488
    f.send(570, CommandKind::Activate, 0, 9); // tRP (565) and tRC met
    f.checker.finalize(1'000);
    EXPECT_EQ(f.checker.violationCount(), 0u)
        << f.checker.report();
    EXPECT_EQ(f.checker.eventsAudited(), 6u);
    EXPECT_TRUE(f.checker.report().empty());
}

TEST(CheckerPositive, AutoPrechargeDerivesPrechargeStart)
{
    // RD with auto-precharge at 175: the rider's precharge begins once
    // tRAS (100+225=325) is satisfied, so the next ACT is legal at 400.
    Feeder f(dram::TimingParams::ddr2_800());
    f.send(100, CommandKind::Activate, 0, 5);
    f.send(175, CommandKind::Read, 0, 5);
    f.send(175, CommandKind::Precharge, 0, 5, /*autoPre=*/true);
    f.send(400, CommandKind::Activate, 0, 6);
    EXPECT_EQ(f.checker.violationCount(), 0u) << f.checker.report();
}

TEST(CheckerPositive, AutoPrechargeTooEarlyActIsFlagged)
{
    Feeder f(dram::TimingParams::ddr2_800());
    f.send(100, CommandKind::Activate, 0, 5);
    f.send(175, CommandKind::Read, 0, 5);
    f.send(175, CommandKind::Precharge, 0, 5, /*autoPre=*/true);
    f.send(399, CommandKind::Activate, 0, 6); // one cycle early
    EXPECT_EQ(f.checker.countOf(Constraint::Trp), 1u);
    EXPECT_EQ(f.checker.violations()[0].earliestLegal, 400u);
}

TEST(CheckerPositive, ViolationRecordingIsCapped)
{
    dram::CheckerParams p;
    p.maxRecordedViolations = 3;
    Feeder f(dram::TimingParams::ddr2_800(), p);
    for (int i = 0; i < 10; ++i)
        f.send(1000 * (i + 1), CommandKind::Read, 0, 1); // closed bank
    EXPECT_EQ(f.checker.violationCount(), 10u);
    EXPECT_EQ(f.checker.violations().size(), 3u);
    EXPECT_NE(f.checker.report().find("not individually recorded"),
              std::string::npos);
}

// ---------------------------------------------------------------------------
// Randomized cross-scheduler stress: full simulations, fully audited.
// ---------------------------------------------------------------------------

namespace {

struct StressCase
{
    sched::Algo algo;
    std::uint64_t seed;
    std::string protocol = "ddr2-800";
};

std::string
stressName(const testing::TestParamInfo<StressCase> &info)
{
    std::string n = std::string(sched::algoName(info.param.algo)) + "_" +
                    info.param.protocol + "_s" +
                    std::to_string(info.param.seed);
    for (char &c : n)
        if (c == '-')
            c = '_';
    return n;
}

/**
 * Every scheduler twice on the default protocol, plus every scheduler
 * once on every other registered protocol — the audit covers DDR3
 * timings and the DDR4 bank-group rules, not just the seed's DDR2.
 */
std::vector<StressCase>
stressCases()
{
    std::vector<StressCase> cases;
    const sched::Algo algos[] = {sched::Algo::FrFcfs, sched::Algo::Stfm,
                                 sched::Algo::ParBs, sched::Algo::Atlas,
                                 sched::Algo::Tcm};
    std::uint64_t seed = 1;
    for (sched::Algo algo : algos) {
        cases.push_back({algo, seed++});
        cases.push_back({algo, seed++});
    }
    for (const std::string &protocol : dram::protocolNames()) {
        if (protocol == "ddr2-800")
            continue;
        for (sched::Algo algo : algos)
            cases.push_back({algo, seed++, protocol});
    }
    return cases;
}

} // namespace

class AuditedStress : public testing::TestWithParam<StressCase>
{
};

TEST_P(AuditedStress, RandomizedConfigsProduceZeroViolations)
{
    StressCase sc = GetParam();
    // Randomize the system shape from the case seed: core count,
    // channel count, rank count, page policy, workload intensity.
    Pcg32 rng(sc.seed * 7919 + 17);
    sim::SystemConfig cfg;
    ASSERT_EQ(cfg.selectProtocol(sc.protocol), "");
    cfg.numCores = 4 + static_cast<int>(rng.nextBelow(5));
    cfg.numChannels = 1 + static_cast<int>(rng.nextBelow(2));
    if (rng.nextBool(0.5)) {
        // Second rank: doubles the bank count at the protocol's own
        // banks-per-rank (and bank-group) geometry.
        cfg.timing.banksPerChannel *= 2;
        cfg.timing.ranksPerChannel = 2;
    }
    if (rng.nextBool(0.25))
        cfg.controller.pagePolicy = mem::PagePolicy::Closed;
    double intensity = 0.5 + 0.25 * static_cast<double>(rng.nextBelow(3));
    cfg.protocolCheck = true;

    auto mix = workload::randomMix(cfg.numCores, intensity, sc.seed);
    sched::SchedulerSpec spec;
    spec.algo = sc.algo;
    spec.scaleToRun(80'000);

    sim::Simulator sim(cfg, mix, spec, sc.seed);
    // Long enough to cross the 2*tREFI refresh deadline (78000 cycles),
    // so the audit covers the refresh obligation, not just command
    // spacing.
    sim.run(30'000, 80'000);

    dram::ProtocolChecker *checker = sim.protocolChecker();
    ASSERT_NE(checker, nullptr);
    checker->finalize(sim.now());
    EXPECT_GT(checker->eventsAudited(), 0u);
    EXPECT_EQ(checker->violationCount(), 0u) << checker->report();
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, AuditedStress,
                         testing::ValuesIn(stressCases()), stressName);

// ---------------------------------------------------------------------------
// Controller-level audited stress: random injection straight into one
// controller (no core model), checker attached through the controller
// hook.
// ---------------------------------------------------------------------------

class AuditedController : public testing::TestWithParam<std::string>
{
};

TEST_P(AuditedController, RandomInjectionIsProtocolClean)
{
    dram::ProtocolLookup lookup = dram::protocolByName(GetParam());
    ASSERT_TRUE(lookup.ok) << lookup.error;
    dram::TimingParams timing = lookup.spec.derive();
    dram::ProtocolChecker checker(timing);

    sched::SchedulerSpec spec = sched::SchedulerSpec::frfcfs();
    auto policy = sched::makeScheduler(spec, 5);
    std::vector<mem::CoreCounters> counters(4);

    mem::MemoryController mc(0, timing, mem::ControllerParams{}, *policy);
    mc.observe({&checker}, nullptr, nullptr, nullptr);
    policy->configure({.numThreads = 4,
                       .numChannels = 1,
                       .banksPerChannel = timing.banksPerChannel,
                       .readQueues = {&mc.readQueue()},
                       .coreCounters = &counters});

    Pcg32 rng(5);
    std::uint64_t nextId = 1;
    Cycle now = 0;
    for (; now < 100'000; ++now) {
        if (rng.nextBool(0.25) && mc.canAcceptRead())
            mc.submitRead(static_cast<ThreadId>(rng.nextBelow(4)),
                          nextId++,
                          static_cast<BankId>(
                              rng.nextBelow(timing.banksPerChannel)),
                          static_cast<RowId>(rng.nextBelow(8)),
                          static_cast<ColId>(
                              rng.nextBelow(timing.colsPerRow)),
                          now);
        if (rng.nextBool(0.08) && mc.canAcceptWrite())
            mc.submitWrite(static_cast<ThreadId>(rng.nextBelow(4)),
                           static_cast<BankId>(rng.nextBelow(4)),
                           static_cast<RowId>(rng.nextBelow(8)), 0, now);
        policy->tick(now);
        mc.tick(now);
        mc.completions().clear();
    }
    checker.finalize(now);
    EXPECT_GT(checker.eventsAudited(), 1000u);
    EXPECT_EQ(checker.violationCount(), 0u) << checker.report();
}

namespace {

std::string
protocolTestName(const testing::TestParamInfo<std::string> &info)
{
    std::string n = info.param;
    for (char &c : n)
        if (c == '-')
            c = '_';
    return n;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(AllProtocols, AuditedController,
                         testing::ValuesIn(dram::protocolNames()),
                         protocolTestName);

// ---------------------------------------------------------------------------
// The engine's one legality function against the referee, at the cycle
// boundary: a random legal command stream straight into one channel.
// ---------------------------------------------------------------------------

class EarliestIssueBoundary : public testing::TestWithParam<std::string>
{
};

TEST_P(EarliestIssueBoundary, RefereeAcceptsAtEarliestIssueOnlyFromThen)
{
    dram::ProtocolLookup lookup = dram::protocolByName(GetParam());
    ASSERT_TRUE(lookup.ok) << lookup.error;
    dram::TimingParams timing = lookup.spec.derive();
    timing.refreshEnabled = false; // REFs below are the stream's own
    // One rank: the engine spaces column commands channel-wide, while
    // the checker applies tCCD per rank, so across ranks the checker
    // accepts some reads the engine still holds back (DESIGN.md §7).
    ASSERT_EQ(timing.ranksPerChannel, 1);
    dram::Channel ch(timing);
    dram::ProtocolChecker checker(timing);
    ch.observe({&checker});

    const int banks = timing.banksPerChannel;
    Pcg32 rng(23);
    std::uint64_t probes = 0;
    bool issued = false;
    bool closing = false; // precharging every bank for a REF
    Cycle last = 0;
    for (int step = 0; step < 5000; ++step) {
        // A command the current state allows, to a random bank. Now and
        // then close every bank and issue a REF, as the refresh engine
        // does.
        BankId b = static_cast<BankId>(rng.nextBelow(banks));
        CommandKind kind = CommandKind::Activate;
        RowId row = kNoRow;
        if (closing || rng.nextBool(0.05)) {
            closing = !ch.rankPrecharged(0);
            if (!closing) {
                kind = CommandKind::Refresh;
            } else {
                while (ch.bank(b).precharged())
                    b = static_cast<BankId>((b + 1) % banks);
                kind = CommandKind::Precharge;
            }
        } else if (ch.bank(b).precharged()) {
            row = static_cast<RowId>(rng.nextBelow(8));
        } else {
            const std::uint32_t pick = rng.nextBelow(8);
            kind = pick < 4   ? CommandKind::Read
                   : pick < 6 ? CommandKind::Write
                              : CommandKind::Precharge;
            row = ch.bank(b).openRow();
        }
        const Cycle at = ch.earliestIssue(kind, b);
        ASSERT_NE(at, kCycleNever) << "step " << step;

        dram::CommandEvent ev;
        ev.rank = 0;
        ev.bank = b;
        ev.kind = kind;
        ev.row = row;
        ev.cycle = at;
        dram::ProtocolChecker onTime = checker;
        onTime.onCommand(ev);
        EXPECT_EQ(onTime.violationCount(), 0u)
            << "step " << step << ": " << onTime.report();
        if (at > 0 && (!issued || at - 1 > last)) {
            ev.cycle = at - 1;
            dram::ProtocolChecker early = checker;
            early.onCommand(ev);
            EXPECT_GT(early.violationCount(), 0u)
                << "step " << step << ": " << dram::formatCommandEvent(ev)
                << " accepted one cycle before earliestIssue";
            ++probes;
        }

        // Issue it, sometimes late, so that different constraints bind
        // the commands that follow.
        last = at + (rng.nextBool(0.3) ? rng.nextBelow(400) : 0);
        ch.issue(kind, b, row, last);
        issued = true;
    }
    EXPECT_EQ(checker.violationCount(), 0u) << checker.report();
    EXPECT_GT(probes, 4000u);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, EarliestIssueBoundary,
                         testing::ValuesIn(dram::protocolNames()),
                         protocolTestName);
