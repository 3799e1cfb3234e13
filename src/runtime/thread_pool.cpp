#include "src/runtime/thread_pool.hpp"

#include <algorithm>

#include "src/base/fault.hpp"
#include "src/obs/obs.hpp"

namespace hqs {

ThreadPool::ThreadPool(std::size_t numThreads, std::size_t queueCapacity)
    : capacity_(std::max<std::size_t>(1, queueCapacity))
{
    const std::size_t n = std::max<std::size_t>(1, numThreads);
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        stop_ = true;
    }
    workReady_.notify_all();
    spaceReady_.notify_all();
    for (std::thread& t : workers_) t.join();
}

bool ThreadPool::submit(std::function<void()> job)
{
    const std::uint64_t now = HQS_OBS_ENABLED ? obs::detail::nowNs() : 0;
    std::size_t depth = 0;
    {
        std::unique_lock<std::mutex> lock(mu_);
        spaceReady_.wait(lock, [this] { return stop_ || queue_.size() < capacity_; });
        if (stop_) return false;
        queue_.push_back({std::move(job), now});
        depth = queue_.size();
    }
    OBS_GAUGE_SET("pool.queue_depth", depth);
    OBS_GAUGE_MAX("pool.queue_depth.max", depth);
    workReady_.notify_one();
    return true;
}

void ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    allIdle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

std::vector<FailureInfo> ThreadPool::failures() const
{
    std::unique_lock<std::mutex> lock(mu_);
    return failures_;
}

std::size_t ThreadPool::failedJobs() const
{
    std::unique_lock<std::mutex> lock(mu_);
    return failures_.size();
}

std::size_t ThreadPool::queueDepth() const
{
    std::unique_lock<std::mutex> lock(mu_);
    return queue_.size();
}

std::size_t ThreadPool::activeCount() const
{
    std::unique_lock<std::mutex> lock(mu_);
    return active_;
}

void ThreadPool::workerLoop()
{
    for (;;) {
        QueuedJob job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            workReady_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            // Drain-on-stop: keep taking jobs until the queue is empty, so
            // destruct-while-busy completes everything already accepted.
            if (queue_.empty()) return;
            job = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
            OBS_GAUGE_SET("pool.queue_depth", queue_.size());
            OBS_GAUGE_SET("pool.active", active_);
            OBS_GAUGE_MAX("pool.active.max", active_);
        }
        spaceReady_.notify_one();
        if (job.enqueueNs != 0) {
            OBS_OBSERVE("pool.queue_latency_us",
                        (obs::detail::nowNs() - job.enqueueNs) / 1000);
        }
        FailureInfo failure;
        obs::clearDeathSite();
        try {
            fault::checkpoint("pool-dispatch");
            OBS_SPAN(jobSpan, "pool.job");
            job.fn();
        } catch (...) {
            // A throwing job marks itself failed; the worker survives to run
            // the rest of the queue.  Tag the failure with the innermost
            // span the exception unwound out of.
            failure = classifyException(std::current_exception());
            if (failure.site.empty()) failure.site = obs::deathSite();
            OBS_COUNT("pool.job_failures", 1);
        }
        {
            std::unique_lock<std::mutex> lock(mu_);
            if (failure) failures_.push_back(std::move(failure));
            --active_;
            OBS_GAUGE_SET("pool.active", active_);
            if (queue_.empty() && active_ == 0) allIdle_.notify_all();
        }
    }
}

} // namespace hqs
