/**
 * @file
 * Unit tests for the memory controller: queueing, prioritization tiers,
 * write drain, refresh, backpressure and completion timing.
 */

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "mem/controller.hpp"
#include "mem/request_queue.hpp"
#include "sched/fcfs.hpp"
#include "sched/fixed_rank.hpp"
#include "sched/frfcfs.hpp"

using namespace tcm;
using namespace tcm::mem;

namespace {

dram::TimingParams
timing(bool refresh = false)
{
    dram::TimingParams t = dram::TimingParams::ddr2_800();
    t.refreshEnabled = refresh;
    return t;
}

/** Wiring of a one-channel rig with @p threads threads. */
Wiring
oneChannel(int threads, const dram::TimingParams &t)
{
    return {.numThreads = threads,
            .numChannels = 1,
            .banksPerChannel = t.banksPerChannel};
}

/** Run the controller for @p cycles starting at @p from. */
Cycle
spin(MemoryController &mc, Cycle from, Cycle cycles)
{
    for (Cycle c = from; c < from + cycles; ++c)
        mc.tick(c);
    return from + cycles;
}

} // namespace

// ---------------------------------------------------------------------------
// RequestQueue
// ---------------------------------------------------------------------------

TEST(RequestQueue, CapacityCountsInFlight)
{
    RequestQueue q(2, 1);
    Request r;
    r.arrivedAt = 100;
    ASSERT_TRUE(q.canAcceptRead());
    q.addInFlight(r);
    ASSERT_TRUE(q.canAcceptRead());
    q.addInFlight(r);
    EXPECT_FALSE(q.canAcceptRead());
    EXPECT_TRUE(q.canAcceptWrite());
}

TEST(RequestQueue, AdmitsOnlyDueArrivals)
{
    RequestQueue q(8, 8);
    Request a, b;
    a.arrivedAt = 10;
    a.seq = 1;
    b.arrivedAt = 20;
    b.seq = 2;
    q.addInFlight(a);
    q.addInFlight(b);
    EXPECT_EQ(q.admitArrivals(9).size(), 0u);
    auto first = q.admitArrivals(10);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].seq, 1u);
    EXPECT_EQ(q.reads().size(), 1u);
    auto second = q.admitArrivals(25);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].seq, 2u);
}

TEST(RequestQueue, RemoveReadSwapPops)
{
    RequestQueue q(8, 8);
    for (int i = 0; i < 3; ++i) {
        Request r;
        r.seq = i;
        r.arrivedAt = 0;
        q.addInFlight(r);
    }
    q.admitArrivals(0);
    Request removed = q.readLane().remove(0);
    EXPECT_EQ(removed.seq, 0u);
    EXPECT_EQ(q.reads().size(), 2u);
}

TEST(RequestQueue, WritesGoToWriteQueue)
{
    RequestQueue q(8, 8);
    Request w;
    w.isWrite = true;
    w.arrivedAt = 0;
    q.addInFlight(w);
    q.admitArrivals(0);
    EXPECT_EQ(q.reads().size(), 0u);
    EXPECT_EQ(q.writes().size(), 1u);
}

// ---------------------------------------------------------------------------
// Controller basics
// ---------------------------------------------------------------------------

TEST(Controller, UncontendedReadCompletesAtClosedBankLatency)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    sched::FrFcfs sched;
    sched.configure(oneChannel(1, t));
    MemoryController mc(0, t, p, sched);

    mc.submitRead(0, /*missId=*/1, /*bank=*/0, /*row=*/5, /*col=*/0, 0);
    spin(mc, 0, 600);
    ASSERT_EQ(mc.completions().size(), 1u);
    // closed bank: transport(40) + ACT wait + tRCD + tCL + tBURST + 35.
    Cycle expect = t.cpuToMcDelay + t.tRCD + t.tCL + t.tBURST +
                   t.mcToCpuDelay;
    EXPECT_NEAR(static_cast<double>(mc.completions()[0].readyAt),
                static_cast<double>(expect), t.tCK + 1);
    EXPECT_EQ(mc.stats().readsServiced, 1u);
    EXPECT_EQ(mc.stats().activates, 1u);
    EXPECT_EQ(mc.stats().rowHits, 0u);
}

TEST(Controller, RowHitSkipsActivate)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    sched::FrFcfs sched;
    sched.configure(oneChannel(1, t));
    MemoryController mc(0, t, p, sched);

    mc.submitRead(0, 1, 0, 5, 0, 0);
    Cycle now = spin(mc, 0, 600);
    mc.submitRead(0, 2, 0, 5, 1, now);
    spin(mc, now, 600);
    ASSERT_EQ(mc.completions().size(), 2u);
    EXPECT_EQ(mc.stats().activates, 1u);
    EXPECT_EQ(mc.stats().rowHits, 1u);
}

TEST(Controller, ConflictPrechargesThenActivates)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    sched::FrFcfs sched;
    sched.configure(oneChannel(1, t));
    MemoryController mc(0, t, p, sched);

    mc.submitRead(0, 1, 0, 5, 0, 0);
    Cycle now = spin(mc, 0, 600);
    mc.submitRead(0, 2, 0, 9, 0, now);
    spin(mc, now, 1000);
    ASSERT_EQ(mc.completions().size(), 2u);
    EXPECT_EQ(mc.stats().activates, 2u);
    EXPECT_EQ(mc.stats().precharges, 1u);
}

TEST(Controller, FrFcfsPrefersRowHitOverOlderConflict)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    sched::FrFcfs sched;
    sched.configure(oneChannel(2, t));
    MemoryController mc(0, t, p, sched);

    // Open row 5 for thread 0.
    mc.submitRead(0, 1, 0, 5, 0, 0);
    Cycle now = spin(mc, 0, 600);
    // Conflict request (older by sequence) and row-hit request, arriving
    // together so the policy (not arrival timing) decides.
    mc.submitRead(1, 2, 0, 9, 0, now);
    mc.submitRead(0, 3, 0, 5, 1, now);
    spin(mc, now, 1500);
    ASSERT_EQ(mc.completions().size(), 3u);
    // The row hit (missId 3) must finish before the conflict (missId 2).
    EXPECT_EQ(mc.completions()[1].missId, 3u);
    EXPECT_EQ(mc.completions()[2].missId, 2u);
}

TEST(Controller, FcfsIgnoresRowHits)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    sched::Fcfs sched;
    sched.configure(oneChannel(2, t));
    MemoryController mc(0, t, p, sched);

    mc.submitRead(0, 1, 0, 5, 0, 0);
    Cycle now = spin(mc, 0, 600);
    mc.submitRead(1, 2, 0, 9, 0, now);
    mc.submitRead(0, 3, 0, 5, 1, now);
    spin(mc, now, 1500);
    ASSERT_EQ(mc.completions().size(), 3u);
    // Strict arrival order: the conflict (older by sequence) goes first.
    EXPECT_EQ(mc.completions()[1].missId, 2u);
    EXPECT_EQ(mc.completions()[2].missId, 3u);
}

TEST(Controller, HigherRankedThreadWinsOverRowHit)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    // Thread 1 strictly above thread 0.
    sched::FixedRank sched({0, 1});
    sched.configure(oneChannel(2, t));
    MemoryController mc(0, t, p, sched);

    mc.submitRead(0, 1, 0, 5, 0, 0);
    Cycle now = spin(mc, 0, 600);
    // Thread 0 row hit vs thread 1 conflict: rank outranks row-hit.
    mc.submitRead(0, 2, 0, 5, 1, now);
    mc.submitRead(1, 3, 0, 9, 0, now);
    spin(mc, now, 1500);
    ASSERT_EQ(mc.completions().size(), 3u);
    EXPECT_EQ(mc.completions()[1].missId, 3u);
    EXPECT_EQ(mc.completions()[2].missId, 2u);
}

TEST(Controller, BackpressureWhenReadBufferFull)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    p.readQueueCap = 4;
    sched::FrFcfs sched;
    sched.configure(oneChannel(1, t));
    MemoryController mc(0, t, p, sched);

    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(mc.canAcceptRead());
        mc.submitRead(0, i + 1, 0, 5, i, 0);
    }
    EXPECT_FALSE(mc.canAcceptRead());
    spin(mc, 0, 2000);
    EXPECT_TRUE(mc.canAcceptRead());
    EXPECT_EQ(mc.completions().size(), 4u);
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

TEST(Controller, WritesServeOpportunisticallyWhenNoReads)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    sched::FrFcfs sched;
    sched.configure(oneChannel(1, t));
    MemoryController mc(0, t, p, sched);

    mc.submitWrite(0, 0, 5, 0, 0);
    spin(mc, 0, 1000);
    EXPECT_EQ(mc.stats().writesServiced, 1u);
}

TEST(Controller, WriteDrainTriggersAtHighWatermark)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    p.writeQueueCap = 64;
    p.writeDrain.highWatermark = 8;
    p.writeDrain.lowWatermark = 2;
    sched::FrFcfs sched;
    sched.configure(oneChannel(2, t));
    MemoryController mc(0, t, p, sched);

    // Keep a steady stream of row-hit reads from thread 0 and pile up
    // writes from thread 1; once the high watermark is hit the drain
    // must service writes even though reads are pending.
    Cycle now = 0;
    mc.submitRead(0, 1000, 0, 5, 0, now);
    for (int i = 0; i < 10; ++i)
        mc.submitWrite(1, 1, 7, i, now);
    for (int i = 0; i < 40; ++i)
        mc.submitRead(0, i, 0, 5, i % 64, now + 1 + i);
    spin(mc, 0, 30'000);
    EXPECT_GE(mc.stats().writeDrains, 1u);
    EXPECT_GE(mc.stats().writesServiced, 8u);
    EXPECT_GE(mc.stats().readsServiced, 40u);
}

TEST(Controller, WriteBackpressureAtCapacity)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    p.writeQueueCap = 2;
    p.writeDrain.highWatermark = 100; // never drain via watermark
    p.writeDrain.lowWatermark = 0;
    sched::FrFcfs sched;
    sched.configure(oneChannel(1, t));
    MemoryController mc(0, t, p, sched);

    mc.submitWrite(0, 0, 5, 0, 0);
    mc.submitWrite(0, 0, 5, 1, 0);
    EXPECT_FALSE(mc.canAcceptWrite());
    spin(mc, 0, 2000); // opportunistic drain (no reads)
    EXPECT_TRUE(mc.canAcceptWrite());
}

// ---------------------------------------------------------------------------
// Page policy
// ---------------------------------------------------------------------------

TEST(Controller, ClosedPageReactivatesForRepeatAccess)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    p.pagePolicy = PagePolicy::Closed;
    sched::FrFcfs sched;
    sched.configure(oneChannel(1, t));
    MemoryController mc(0, t, p, sched);

    // Two same-row reads far apart in time: with closed-page the row is
    // gone by the second access, so two ACTs happen.
    mc.submitRead(0, 1, 0, 5, 0, 0);
    Cycle now = spin(mc, 0, 800);
    mc.submitRead(0, 2, 0, 5, 1, now);
    spin(mc, now, 800);
    EXPECT_EQ(mc.stats().readsServiced, 2u);
    EXPECT_EQ(mc.stats().activates, 2u);
    EXPECT_EQ(mc.stats().rowHits, 0u);
}

TEST(Controller, SmartClosedKeepsRowForQueuedHit)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    p.pagePolicy = PagePolicy::Closed;
    sched::FrFcfs sched;
    sched.configure(oneChannel(1, t));
    MemoryController mc(0, t, p, sched);

    // Two same-row reads queued together: the smart-closed policy must
    // not precharge between them.
    mc.submitRead(0, 1, 0, 5, 0, 0);
    mc.submitRead(0, 2, 0, 5, 1, 0);
    spin(mc, 0, 1200);
    EXPECT_EQ(mc.stats().readsServiced, 2u);
    EXPECT_EQ(mc.stats().activates, 1u);
    EXPECT_EQ(mc.stats().rowHits, 1u);
}

TEST(Controller, OpenPageKeepsRowByDefault)
{
    dram::TimingParams t = timing();
    ControllerParams p; // PagePolicy::Open
    sched::FrFcfs sched;
    sched.configure(oneChannel(1, t));
    MemoryController mc(0, t, p, sched);

    mc.submitRead(0, 1, 0, 5, 0, 0);
    Cycle now = spin(mc, 0, 800);
    mc.submitRead(0, 2, 0, 5, 1, now);
    spin(mc, now, 800);
    EXPECT_EQ(mc.stats().activates, 1u);
    EXPECT_EQ(mc.stats().rowHits, 1u);
}

// ---------------------------------------------------------------------------
// Refresh
// ---------------------------------------------------------------------------

TEST(Controller, RefreshHappensPeriodically)
{
    dram::TimingParams t = timing(/*refresh=*/true);
    ControllerParams p;
    sched::FrFcfs sched;
    sched.configure(oneChannel(1, t));
    MemoryController mc(0, t, p, sched);

    Cycle horizon = t.tREFI * 3 + t.tRFC * 3 + 100;
    spin(mc, 0, horizon);
    EXPECT_GE(mc.stats().refreshes, 3u);
}

TEST(Controller, ReadsStillCompleteWithRefreshEnabled)
{
    dram::TimingParams t = timing(/*refresh=*/true);
    ControllerParams p;
    sched::FrFcfs sched;
    sched.configure(oneChannel(1, t));
    MemoryController mc(0, t, p, sched);

    Cycle now = 0;
    int submitted = 0;
    for (; now < t.tREFI * 2; ++now) {
        if (now % 500 == 0 && mc.canAcceptRead()) {
            mc.submitRead(0, submitted, 0, static_cast<RowId>(now % 97), 0,
                          now);
            ++submitted;
        }
        mc.tick(now);
    }
    spin(mc, now, 2000);
    EXPECT_EQ(mc.completions().size(), static_cast<std::size_t>(submitted));
}

// ---------------------------------------------------------------------------
// Idle fast-path equivalence
// ---------------------------------------------------------------------------

namespace {

/** Drive one controller with pseudo-random traffic; fingerprint it. */
std::vector<Cycle>
trafficFingerprint(bool idleSkip, bool refresh)
{
    dram::TimingParams t = timing(refresh);
    ControllerParams p;
    p.idleSkip = idleSkip;
    p.writeDrain.highWatermark = 6;
    p.writeDrain.lowWatermark = 2;
    sched::FrFcfs sched;
    sched.configure(oneChannel(4, t));
    MemoryController mc(0, t, p, sched);

    tcm::Pcg32 rng(12345);
    std::vector<Cycle> fingerprint;
    std::uint64_t id = 1;
    for (Cycle now = 0; now < 60'000; ++now) {
        if (rng.nextBool(0.03) && mc.canAcceptRead())
            mc.submitRead(static_cast<ThreadId>(rng.nextBelow(4)), id++,
                          static_cast<BankId>(rng.nextBelow(4)),
                          static_cast<RowId>(rng.nextBelow(16)),
                          static_cast<ColId>(rng.nextBelow(64)), now);
        if (rng.nextBool(0.02) && mc.canAcceptWrite())
            mc.submitWrite(static_cast<ThreadId>(rng.nextBelow(4)),
                           static_cast<BankId>(rng.nextBelow(4)),
                           static_cast<RowId>(rng.nextBelow(16)), 0, now);
        mc.tick(now);
        for (const auto &c : mc.completions())
            fingerprint.push_back(c.readyAt);
        mc.completions().clear();
    }
    fingerprint.push_back(mc.stats().readsServiced);
    fingerprint.push_back(mc.stats().writesServiced);
    fingerprint.push_back(mc.stats().activates);
    fingerprint.push_back(mc.stats().precharges);
    fingerprint.push_back(mc.stats().rowHits);
    return fingerprint;
}

} // namespace

TEST(Controller, IdleSkipIsCycleExact)
{
    // The idle fast-path must not change a single completion time or
    // statistic, with and without refresh in the mix.
    EXPECT_EQ(trafficFingerprint(true, false),
              trafficFingerprint(false, false));
    EXPECT_EQ(trafficFingerprint(true, true),
              trafficFingerprint(false, true));
}

// ---------------------------------------------------------------------------
// Write-drain latch
// ---------------------------------------------------------------------------

TEST(Controller, OpportunisticModeCountsNoLatch)
{
    dram::TimingParams t = timing();
    ControllerParams p; // one write never reaches the high watermark
    sched::FrFcfs sched;
    sched.configure(oneChannel(1, t));
    MemoryController mc(0, t, p, sched);

    mc.submitWrite(0, 0, 5, 0, 0);
    spin(mc, 0, 2000);
    EXPECT_EQ(mc.stats().writesServiced, 1u);
    EXPECT_EQ(mc.stats().writeDrains, 0u);
}

namespace {

/** Like trafficFingerprint, with bursty traffic and a tight drain latch. */
std::vector<Cycle>
policyFingerprint(bool idleSkip)
{
    dram::TimingParams t = timing(/*refresh=*/true);
    ControllerParams p;
    p.idleSkip = idleSkip;
    p.writeDrain.highWatermark = 4;
    p.writeDrain.lowWatermark = 1;
    sched::FrFcfs sched;
    sched.configure(oneChannel(4, t));
    MemoryController mc(0, t, p, sched);

    tcm::Pcg32 rng(999);
    std::vector<Cycle> fingerprint;
    std::uint64_t id = 1;
    for (Cycle now = 0; now < 60'000; ++now) {
        // Short bursts with long dead stretches: the queues fully drain
        // between bursts, so the skip crosses long idle spans and
        // refreshes fall both inside and between bursts.
        bool active = now % 6000 < 600;
        if (active && rng.nextBool(0.08) && mc.canAcceptRead())
            mc.submitRead(static_cast<ThreadId>(rng.nextBelow(4)), id++,
                          static_cast<BankId>(rng.nextBelow(4)),
                          static_cast<RowId>(rng.nextBelow(4)),
                          static_cast<ColId>(rng.nextBelow(64)), now);
        if (active && rng.nextBool(0.02) && mc.canAcceptWrite())
            mc.submitWrite(static_cast<ThreadId>(rng.nextBelow(4)),
                           static_cast<BankId>(rng.nextBelow(4)),
                           static_cast<RowId>(rng.nextBelow(4)), 0, now);
        mc.tick(now);
        for (const auto &c : mc.completions())
            fingerprint.push_back(c.readyAt);
        mc.completions().clear();
    }
    fingerprint.push_back(mc.stats().readsServiced);
    fingerprint.push_back(mc.stats().writesServiced);
    fingerprint.push_back(mc.stats().activates);
    fingerprint.push_back(mc.stats().precharges);
    fingerprint.push_back(mc.stats().rowHits);
    fingerprint.push_back(mc.stats().writeDrains);
    return fingerprint;
}

} // namespace

TEST(Controller, IdleSkipIsCycleExactWithPoliciesEngaged)
{
    // The idle fast-path must stay bit-exact when the drain latch and
    // refresh are both active under bursty traffic.
    std::vector<Cycle> skipped = policyFingerprint(true);
    std::vector<Cycle> stepped = policyFingerprint(false);
    EXPECT_EQ(skipped, stepped);
    // Sanity: the scenario actually exercised the machinery.
    ASSERT_GE(skipped.size(), 1u);
    EXPECT_GE(skipped.back(), 1u); // drain latches
}

// ---------------------------------------------------------------------------
// Aging tier (ATLAS-style escalation)
// ---------------------------------------------------------------------------

namespace {

/** Scheduler that ranks thread 1 above thread 0 with a finite aging cap. */
class AgingRank : public sched::SchedulerPolicy
{
  public:
    const char *name() const override { return "aging-test"; }

    void
    configure(const mem::Wiring &wiring) override
    {
        sched::SchedulerPolicy::configure(wiring);
        setRanks({0, 1});
    }

    Cycle agingThreshold() const override { return 3000; }
};

} // namespace

TEST(Controller, OverAgeRequestBeatsHigherRank)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    AgingRank sched;
    sched.configure(oneChannel(2, t));
    MemoryController mc(0, t, p, sched);

    // Thread 0's request arrives first and ages past the threshold while
    // thread 1 (higher ranked) keeps the bank saturated with row hits.
    mc.submitRead(0, 999, 0, 9, 0, 0);
    Cycle now = 0;
    std::uint64_t id = 0;
    bool victim_done = false;
    Cycle victim_done_at = 0;
    for (; now < 20'000; ++now) {
        if (mc.canAcceptRead() && mc.readLoad() < 30) {
            ColId col = static_cast<ColId>(id % 64);
            mc.submitRead(1, id++, 0, 5, col, now);
        }
        mc.tick(now);
        for (const auto &c : mc.completions()) {
            if (c.missId == 999 && c.thread == 0) {
                victim_done = true;
                victim_done_at = now;
            }
        }
        mc.completions().clear();
        if (victim_done)
            break;
    }
    ASSERT_TRUE(victim_done);
    // Without aging the victim would starve ~forever; with a 3000-cycle
    // threshold it must finish shortly after aging out.
    EXPECT_LT(victim_done_at, 8000u);
}

// ---------------------------------------------------------------------------
// A hand-written policy publishing ranks from tick()
// ---------------------------------------------------------------------------

namespace {

/** Favours thread 0, then swaps threads 0 and 1 at tick(swapAt). */
class SwapRanks : public sched::SchedulerPolicy
{
  public:
    const char *name() const override { return "swap-test"; }

    void
    configure(const mem::Wiring &wiring) override
    {
        sched::SchedulerPolicy::configure(wiring);
        setRanks({1, 0});
    }

    void
    tick(Cycle now) override
    {
        if (now == swapAt)
            setRanks({0, 1});
    }

    Cycle swapAt = kCycleNever;
};

} // namespace

TEST(Controller, RanksSetInTickReachTheNextScan)
{
    // Both threads queue row hits to one bank, thread 0's first, so only
    // the rank tier can serve a thread 1 read before a thread 0 one. The
    // policy swaps the ranks in the cycle after the first read issues:
    // the next scan must serve thread 1, and all of thread 1's reads
    // must go before the rest of thread 0's.
    dram::TimingParams t = timing();
    ControllerParams p;
    SwapRanks sched;
    sched.configure(oneChannel(2, t));
    MemoryController mc(0, t, p, sched);

    constexpr int kPerThread = 6;
    for (ThreadId thread : {0, 1})
        for (int i = 0; i < kPerThread; ++i)
            mc.submitRead(thread, 100 * thread + i, /*bank=*/0, /*row=*/5,
                          static_cast<ColId>(i), 0);

    std::vector<ThreadId> served;
    for (Cycle now = 0; now < 5'000; ++now) {
        sched.tick(now);
        mc.tick(now);
        for (const auto &c : mc.completions()) {
            served.push_back(c.thread);
            if (sched.swapAt == kCycleNever)
                sched.swapAt = now + 1;
        }
        mc.completions().clear();
    }
    EXPECT_EQ(served, (std::vector<ThreadId>{0, 1, 1, 1, 1, 1, 1, 0, 0, 0,
                                             0, 0}));
}
