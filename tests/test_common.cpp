/**
 * @file
 * Unit tests for common utilities: PCG32, RunningStat, env helpers.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "common/env.hpp"
#include "common/numfmt.hpp"
#include "common/random.hpp"
#include "common/running_stat.hpp"

using namespace tcm;

// ---------------------------------------------------------------------------
// Pcg32
// ---------------------------------------------------------------------------

TEST(Pcg32, SameSeedSameSequence)
{
    Pcg32 a(123, 5), b(123, 5);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Pcg32, DifferentSeedsDiverge)
{
    Pcg32 a(123, 5), b(124, 5);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Pcg32, DifferentStreamsDiverge)
{
    Pcg32 a(123, 5), b(123, 6);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Pcg32, NextBelowStaysInRange)
{
    Pcg32 rng(7);
    for (std::uint32_t bound : {1u, 2u, 3u, 10u, 255u, 1u << 20}) {
        for (int i = 0; i < 200; ++i) {
            std::uint32_t v = rng.nextBelow(bound);
            ASSERT_LT(v, bound) << "bound " << bound;
        }
    }
}

TEST(Pcg32, NextBelowIsRoughlyUniform)
{
    Pcg32 rng(99);
    constexpr int kBuckets = 8;
    constexpr int kDraws = 80'000;
    int counts[kBuckets] = {};
    for (int i = 0; i < kDraws; ++i)
        ++counts[rng.nextBelow(kBuckets)];
    for (int c : counts) {
        EXPECT_GT(c, kDraws / kBuckets * 0.9);
        EXPECT_LT(c, kDraws / kBuckets * 1.1);
    }
}

TEST(Pcg32, NextDoubleInUnitInterval)
{
    Pcg32 rng(3);
    double sum = 0.0;
    for (int i = 0; i < 10'000; ++i) {
        double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Pcg32, BernoulliEdgeCases)
{
    Pcg32 rng(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
    }
}

TEST(Pcg32, BernoulliMatchesProbability)
{
    Pcg32 rng(11);
    int hits = 0;
    constexpr int kDraws = 50'000;
    for (int i = 0; i < kDraws; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(Pcg32, GeometricMeanIsClose)
{
    Pcg32 rng(13);
    for (double mean : {0.5, 3.0, 50.0, 999.0}) {
        double sum = 0.0;
        constexpr int kDraws = 40'000;
        for (int i = 0; i < kDraws; ++i)
            sum += static_cast<double>(rng.nextGeometric(mean));
        EXPECT_NEAR(sum / kDraws, mean, mean * 0.05 + 0.05) << mean;
    }
}

TEST(Pcg32, GeometricOfZeroMeanIsZero)
{
    Pcg32 rng(17);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextGeometric(0.0), 0u);
}

// ---------------------------------------------------------------------------
// RunningStat
// ---------------------------------------------------------------------------

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStat, SingleSample)
{
    RunningStat s;
    s.add(4.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.5);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.5);
    EXPECT_DOUBLE_EQ(s.min(), 4.5);
}

TEST(RunningStat, KnownMoments)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
}

TEST(RunningStat, NegativeValuesTracked)
{
    RunningStat s;
    s.add(-3.0);
    s.add(-1.0);
    EXPECT_DOUBLE_EQ(s.mean(), -2.0);
    EXPECT_DOUBLE_EQ(s.max(), -1.0);
    EXPECT_DOUBLE_EQ(s.min(), -3.0);
}

// ---------------------------------------------------------------------------
// env helpers
// ---------------------------------------------------------------------------

TEST(Env, IntDefaultWhenUnset)
{
    unsetenv("TCMSIM_TEST_VAR");
    EXPECT_EQ(envInt("TCMSIM_TEST_VAR", 42, 0), 42);
    setenv("TCMSIM_TEST_VAR", "", 1);
    EXPECT_EQ(envInt("TCMSIM_TEST_VAR", 42, 0), 42);
    unsetenv("TCMSIM_TEST_VAR");
}

TEST(Env, IntParsesValue)
{
    setenv("TCMSIM_TEST_VAR", "123456", 1);
    EXPECT_EQ(envInt("TCMSIM_TEST_VAR", 42, 1), 123456);
    setenv("TCMSIM_TEST_VAR", "0", 1);
    EXPECT_EQ(envInt("TCMSIM_TEST_VAR", 42, 0), 0);
    unsetenv("TCMSIM_TEST_VAR");
}

TEST(Env, IntRejectsGarbage)
{
    // A prefix parse would read "10k" as 10 and "3e5" as 3 cycles. A
    // rejected value ends the process with exit 2 and a message naming
    // the variable and its text.
    for (const char *text : {"abc", "10k", "3e5", " 7", "-1"}) {
        setenv("TCMSIM_TEST_VAR", text, 1);
        EXPECT_EXIT(envInt("TCMSIM_TEST_VAR", 42, 0),
                    ::testing::ExitedWithCode(2), "TCMSIM_TEST_VAR=")
            << "accepted '" << text << "'";
    }
    setenv("TCMSIM_TEST_VAR", "10k", 1);
    EXPECT_EXIT(envInt("TCMSIM_TEST_VAR", 42, 0),
                ::testing::ExitedWithCode(2), "TCMSIM_TEST_VAR='10k'");
    // Outside the bounds.
    setenv("TCMSIM_TEST_VAR", "0", 1);
    EXPECT_EXIT(envInt("TCMSIM_TEST_VAR", 42, 1),
                ::testing::ExitedWithCode(2), "TCMSIM_TEST_VAR='0'");
    setenv("TCMSIM_TEST_VAR", "4294967297", 1);
    EXPECT_EXIT(envInt("TCMSIM_TEST_VAR", 42, 1, 2147483647),
                ::testing::ExitedWithCode(2),
                "TCMSIM_TEST_VAR='4294967297'");
    unsetenv("TCMSIM_TEST_VAR");
}

// ---------------------------------------------------------------------------
// formatDouble (common/numfmt)
// ---------------------------------------------------------------------------

TEST(NumFmt, ShortestFormRoundTrips)
{
    for (double v : {0.5, 1.0 / 3.0, 8.916972010003711, -2.25, 0.0,
                     5e-324, 1.7976931348623157e308}) {
        std::string s = formatDouble(v);
        EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    }
}

TEST(NumFmt, ShortestFormIsShortest)
{
    EXPECT_EQ(formatDouble(0.5), "0.5");
    EXPECT_EQ(formatDouble(1.0), "1");
    EXPECT_EQ(formatDouble(-2.0), "-2");
    EXPECT_EQ(formatDouble(0.0), "0");
}

TEST(NumFmt, FixedPrecision)
{
    EXPECT_EQ(formatDouble(1.0 / 3.0, 2), "0.33");
    EXPECT_EQ(formatDouble(2.5, 3), "2.500");
    EXPECT_EQ(formatDouble(-0.125, 2), "-0.12");
}

TEST(NumFmt, NonFinite)
{
    EXPECT_EQ(formatDouble(std::nan("")), "nan");
    EXPECT_EQ(formatDouble(std::numeric_limits<double>::infinity()), "inf");
    EXPECT_EQ(formatDouble(-std::numeric_limits<double>::infinity()),
              "-inf");
}

TEST(NumFmt, ParsesWholeStringsOnly)
{
    std::uint64_t u = 0;
    EXPECT_TRUE(parseU64("300000", &u));
    EXPECT_EQ(u, 300000u);
    EXPECT_TRUE(parseU64("ff", &u, 16));
    EXPECT_EQ(u, 255u);
    for (const char *bad : {"", "abc", "12abc", " 1", "+1", "-1",
                            "18446744073709551616"})
        EXPECT_FALSE(parseU64(bad, &u)) << "'" << bad << "'";

    int i = 0;
    EXPECT_TRUE(parseInt("-3", &i));
    EXPECT_EQ(i, -3);
    for (const char *bad : {"", "0x10", "1.5", "99999999999"})
        EXPECT_FALSE(parseInt(bad, &i)) << "'" << bad << "'";

    double d = 0.0;
    EXPECT_TRUE(parseDouble("0.75", &d));
    EXPECT_EQ(d, 0.75);
    for (const char *bad : {"", "abc", "0.5x", "0,5"})
        EXPECT_FALSE(parseDouble(bad, &d)) << "'" << bad << "'";
}

TEST(NumFmt, IgnoresLocale)
{
    // A locale with a comma decimal separator must not leak into the
    // output. de_DE may not be installed in the container; if setlocale
    // fails the test still exercises the default path.
    const char *old = std::setlocale(LC_NUMERIC, nullptr);
    std::string saved = old ? old : "C";
    std::setlocale(LC_NUMERIC, "de_DE.UTF-8");
    EXPECT_EQ(formatDouble(0.5), "0.5");
    EXPECT_EQ(formatDouble(1.0 / 3.0, 2), "0.33");
    std::setlocale(LC_NUMERIC, saved.c_str());
}
