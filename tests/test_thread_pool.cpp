/**
 * @file
 * Unit tests for the experiment-sweep worker pool: result ordering,
 * deterministic exception propagation, the jobs=1 inline bypass, and
 * the TCMSIM_JOBS environment knob.
 */

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"

using namespace tcm;

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.jobs(), 4);

    constexpr std::size_t n = 257; // not a multiple of the pool size
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ResultsLandAtTheirOwnIndex)
{
    // Completion order is arbitrary; slot assignment must not be.
    ThreadPool pool(8);
    constexpr std::size_t n = 64;
    std::vector<std::size_t> out(n, 0);
    pool.parallelFor(n, [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, SubmitReturnsFutureValue)
{
    ThreadPool pool(2);
    auto f = pool.submit([] { return 40 + 2; });
    EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ExceptionPropagatesLowestIndexFirst)
{
    // Two tasks throw; regardless of which finishes first, the caller
    // must see index 2's exception (deterministic across schedules).
    ThreadPool pool(4);
    for (int round = 0; round < 8; ++round) {
        try {
            pool.parallelFor(16, [](std::size_t i) {
                if (i == 2)
                    throw std::runtime_error("low");
                if (i == 11)
                    throw std::runtime_error("high");
            });
            FAIL() << "parallelFor must rethrow";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "low");
        }
    }
}

TEST(ThreadPool, ExceptionDoesNotLoseOtherTasks)
{
    ThreadPool pool(4);
    constexpr std::size_t n = 32;
    std::vector<std::atomic<int>> hits(n);
    EXPECT_THROW(pool.parallelFor(n,
                                  [&](std::size_t i) {
                                      hits[i].fetch_add(1);
                                      if (i == 5)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // Every task still ran: a failure must not abandon queued work.
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, JobsOneBypassesThreads)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.jobs(), 1);

    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran(3);
    pool.parallelFor(3, [&](std::size_t i) {
        ran[i] = std::this_thread::get_id();
    });
    for (const auto &id : ran)
        EXPECT_EQ(id, caller); // inline on the calling thread, in order

    auto f = pool.submit([caller] {
        return std::this_thread::get_id() == caller;
    });
    EXPECT_TRUE(f.get());
}

TEST(ThreadPool, JobsOneRunsIndicesInOrder)
{
    ThreadPool pool(1);
    std::vector<std::size_t> order;
    pool.parallelFor(5, [&](std::size_t i) { order.push_back(i); });
    std::vector<std::size_t> expect(5);
    std::iota(expect.begin(), expect.end(), 0u);
    EXPECT_EQ(order, expect);
}

TEST(ThreadPool, DefaultJobsReadsEnvKnob)
{
    setenv("TCMSIM_JOBS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultJobs(), 3);
    ThreadPool pool; // jobs <= 0 → defaultJobs()
    EXPECT_EQ(pool.jobs(), 3);

    setenv("TCMSIM_JOBS", "1", 1);
    EXPECT_EQ(ThreadPool::defaultJobs(), 1);

    unsetenv("TCMSIM_JOBS");
    EXPECT_GE(ThreadPool::defaultJobs(), 1); // hardware_concurrency fallback
}

TEST(ThreadPool, ZeroTasksIsANoOp)
{
    ThreadPool pool(4);
    pool.parallelFor(0, [](std::size_t) { FAIL() << "must not be called"; });
}
