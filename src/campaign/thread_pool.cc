#include "campaign/thread_pool.hh"

#include <algorithm>
#include <cstdlib>
#include <string>

namespace performa::campaign {

ThreadPool::ThreadPool(unsigned workers)
{
    if (workers == 0)
        workers = 1;
    workers_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stopping_ = true;
        queue_.clear();
    }
    wake_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::submit(Task task)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_ || cancelled_)
            return;
        queue_.push_back(std::move(task));
    }
    wake_.notify_one();
}

void
ThreadPool::cancel()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        cancelled_ = true;
        queue_.clear();
    }
    // Drain waiters may be blocked on a now-empty queue.
    idle_.notify_all();
}

void
ThreadPool::drain()
{
    std::unique_lock<std::mutex> lk(mu_);
    idle_.wait(lk, [this] { return queue_.empty() && active_ == 0; });
}

bool
ThreadPool::cancelled() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return cancelled_;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lk(mu_);
            wake_.wait(lk, [this] {
                return stopping_ || !queue_.empty();
            });
            if (stopping_)
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        task();
        {
            std::lock_guard<std::mutex> lk(mu_);
            --active_;
            if (queue_.empty() && active_ == 0)
                idle_.notify_all();
        }
    }
}

unsigned
defaultWorkerCount()
{
    if (const char *env = std::getenv("PERFORMA_JOBS")) {
        char *end = nullptr;
        long n = std::strtol(env, &end, 10);
        if (end && *end == '\0' && n > 0)
            return static_cast<unsigned>(
                std::min<long>(n, maxWorkers));
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? std::min(hw, maxWorkers) : 1;
}

} // namespace performa::campaign
