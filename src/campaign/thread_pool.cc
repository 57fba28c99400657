#include "campaign/thread_pool.hh"

#include <algorithm>
#include <charconv>
#include <cstdlib>

#include "sim/logging.hh"

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

std::optional<unsigned>
parseWorkerCount(std::string_view text)
{
    unsigned n = 0;
    const char *end = text.data() + text.size();
    auto [stop, ec] = std::from_chars(text.data(), end, n);
    if (text.empty() || ec != std::errc() || stop != end || n > maxWorkers)
        return std::nullopt;
    return n;
}

unsigned
defaultWorkerCount()
{
    if (const char *env = std::getenv("PERFORMA_JOBS")) {
        std::optional<unsigned> n = parseWorkerCount(env);
        if (!n)
            FATAL("bad PERFORMA_JOBS value '", env,
                  "' (a worker count from 0 to ", maxWorkers, ")");
        if (*n > 0)
            return *n;
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? std::min(hw, maxWorkers) : 1;
}

} // namespace performa::campaign
