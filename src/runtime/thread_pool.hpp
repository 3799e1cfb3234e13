// Fixed-size worker pool with a bounded job queue.
//
// The runtime's two consumers have opposite shapes: the portfolio racer
// submits a handful of long jobs and needs them all started at once, the
// batch scheduler streams thousands of jobs through a few workers and needs
// back-pressure so the queue cannot grow without bound.  Both are covered by
// a classic bounded producer/consumer pool:
//
//   * submit() enqueues a job, blocking while the queue is at capacity;
//   * wait() blocks until every submitted job has finished;
//   * the destructor stops accepting work, drains the queue, and joins —
//     destruct-while-busy is safe and completes all accepted jobs.
//
// Jobs may throw: an exception escaping a job is classified into a
// FailureInfo (see guard.hpp) and recorded on the pool — the worker moves
// on to the next job and the process never std::terminates.  Jobs that need
// per-job failure reporting should still catch their own exceptions (the
// batch scheduler runs each job under runGuarded); the pool-level record is
// the last line of defense.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/runtime/guard.hpp"

namespace hqs {

class ThreadPool {
public:
    /// @p numThreads workers (clamped to >= 1); queue holds at most
    /// @p queueCapacity pending jobs (clamped to >= 1) before submit()
    /// blocks.
    explicit ThreadPool(std::size_t numThreads,
                        std::size_t queueCapacity = kDefaultQueueCapacity);

    /// Drains: completes every accepted job, then joins all workers.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Enqueue @p job, blocking while the queue is full.  Safe to call from
    /// any thread, including from inside a running job (a job submitting to
    /// its own pool never blocks on a full queue deadlock-free guarantee is
    /// NOT given — avoid recursive submission near capacity).
    /// Returns false (and drops the job) iff the pool is shutting down.
    bool submit(std::function<void()> job);

    /// Block until the queue is empty and no worker is running a job.
    void wait();

    std::size_t numThreads() const { return workers_.size(); }

    /// Failures recorded from jobs whose exception escaped into the worker,
    /// in completion order.  Thread-safe; typically read after wait().
    std::vector<FailureInfo> failures() const;
    std::size_t failedJobs() const;

    /// Live saturation gauges (also exported as obs metrics `pool.queue_depth`
    /// / `pool.active` so a worker's /metrics shows fleet saturation).
    std::size_t queueDepth() const;
    std::size_t activeCount() const;

    static constexpr std::size_t kDefaultQueueCapacity = 1024;

private:
    struct QueuedJob {
        std::function<void()> fn;
        std::uint64_t enqueueNs = 0; ///< trace-epoch stamp for queue latency
    };

    void workerLoop();

    mutable std::mutex mu_;
    std::condition_variable workReady_;   ///< queue non-empty or stopping
    std::condition_variable spaceReady_;  ///< queue below capacity
    std::condition_variable allIdle_;     ///< queue empty and no active job
    std::deque<QueuedJob> queue_;
    std::size_t capacity_;
    std::size_t active_ = 0; ///< jobs currently executing
    bool stop_ = false;
    std::vector<FailureInfo> failures_; ///< under mu_
    std::vector<std::thread> workers_;
};

} // namespace hqs
