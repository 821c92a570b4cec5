#include "common/thread_pool.hpp"

#include <algorithm>

#include "common/env.hpp"

namespace tcm {

ThreadPool::ThreadPool(int jobs)
{
    jobs_ = jobs > 0 ? jobs : defaultJobs();
    if (jobs_ <= 1) {
        jobs_ = 1;
        return; // inline mode: no threads, no queue traffic
    }
    workers_.reserve(jobs_);
    for (int i = 0; i < jobs_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
            if (tasks_.empty())
                return; // stop_ set and queue drained
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    if (workers_.empty()) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    // One exception slot per index so the rethrow below is by index, not
    // by completion order.
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::future<void>> done;
    done.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        done.push_back(submit([&fn, &errors, i] {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }));
    }
    for (auto &f : done)
        f.wait();
    for (std::size_t i = 0; i < n; ++i)
        if (errors[i])
            std::rethrow_exception(errors[i]);
}

int
ThreadPool::defaultJobs()
{
    std::int64_t fromEnv = envInt("TCMSIM_JOBS", 0, 0);
    if (fromEnv > 0)
        return static_cast<int>(std::min<std::int64_t>(fromEnv, 512));
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

} // namespace tcm
