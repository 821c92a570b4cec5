/**
 * @file
 * Fixed-size worker pool for embarrassingly parallel experiment sweeps.
 *
 * Every (workload, scheduler) simulation of an experiment is independent
 * and independently seeded, so the sweep layer can fan them out across
 * cores without perturbing any result — callers collect per-task outputs
 * by index and reduce them in deterministic order. The pool size comes
 * from the TCMSIM_JOBS environment knob (default: all hardware threads),
 * and jobs=1 bypasses the thread machinery entirely: tasks run inline on
 * the calling thread, which keeps single-threaded debugging, profiling
 * and sanitizer baselines trivial.
 */

#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace tcm {

class ThreadPool
{
  public:
    /**
     * Create a pool of @p jobs workers; @p jobs <= 0 means defaultJobs().
     * A pool of 1 spawns no threads at all — submit()/parallelFor() run
     * their tasks on the calling thread.
     */
    explicit ThreadPool(int jobs = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker count this pool was created with (>= 1). */
    int jobs() const { return jobs_; }

    /**
     * Schedule @p fn and return a future for its result. With jobs=1 the
     * call runs @p fn inline before returning (the future is ready).
     */
    template <class F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task =
            std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
        std::future<R> result = task->get_future();
        if (workers_.empty()) {
            (*task)();
            return result;
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            tasks_.push([task] { (*task)(); });
        }
        cv_.notify_one();
        return result;
    }

    /**
     * Run fn(0) .. fn(n-1) across the pool and block until all complete.
     * Tasks may finish in any order; if any throw, the exception of the
     * *lowest-index* failing task is rethrown (deterministic regardless
     * of scheduling), after every task has finished.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /**
     * Pool size implied by the environment: TCMSIM_JOBS when set to a
     * positive integer (capped at 512), otherwise
     * std::thread::hardware_concurrency() (>= 1). A TCMSIM_JOBS that is
     * not one integer >= 0 exits 2 (see envInt). Read at every call so
     * tests can flip the knob at runtime.
     */
    static int defaultJobs();

  private:
    void workerLoop();

    int jobs_;
    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

} // namespace tcm
