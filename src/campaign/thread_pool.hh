/**
 * @file
 * A fixed-size worker thread pool with a FIFO work queue,
 * cancellation, and drain semantics. Deliberately minimal: the
 * campaign runner layers job identity, exception capture, and
 * deterministic result merging on top.
 */

#ifndef PERFORMA_CAMPAIGN_THREAD_POOL_HH
#define PERFORMA_CAMPAIGN_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

namespace performa::campaign {

/**
 * Fixed-size thread pool. Workers are spawned in the constructor and
 * joined in the destructor; tasks submitted after cancel() or during
 * destruction are silently dropped.
 *
 * Tasks must not throw — wrap fallible work in a try/catch that
 * records the failure (the campaign runner does exactly this).
 */
class ThreadPool
{
  public:
    using Task = std::function<void()>;

    /** Spawn @p workers threads (at least 1). */
    explicit ThreadPool(unsigned workers);

    /** Cancels queued tasks, waits for running ones, joins workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a task; wakes one idle worker. */
    void submit(Task task);

    /**
     * Drop every queued-but-unstarted task. Tasks already running
     * finish normally. Subsequent submit() calls are no-ops.
     */
    void cancel();

    /** Block until the queue is empty and all workers are idle. */
    void drain();

    /** @return true once cancel() has been called. */
    bool cancelled() const;

  private:
    void workerLoop();

    mutable std::mutex mu_;
    std::condition_variable wake_;   ///< signals workers: work or stop
    std::condition_variable idle_;   ///< signals drain(): all quiet
    std::deque<Task> queue_;
    std::vector<std::thread> workers_;
    unsigned active_ = 0;   ///< tasks currently executing
    bool stopping_ = false; ///< destructor has begun
    bool cancelled_ = false;
};

/**
 * The most workers a campaign may ask for. Each busy worker holds a
 * whole simulated world (tens to hundreds of MB), so more than this
 * would exhaust memory long before it helped; larger --jobs and
 * PERFORMA_JOBS values are refused.
 */
inline constexpr unsigned maxWorkers = 256;

/**
 * The largest cluster a campaign may ask for (--nodes). Protocol and
 * PRESS peer tables are indexed by node id, so the node count bounds
 * them; 256 is the largest size on the scaling axis. One node has no
 * intra-cluster communication to compare, so the smallest is 2.
 */
inline constexpr unsigned maxNodes = 256;

/** Parse a worker count (--jobs, PERFORMA_JOBS; 0 = the default):
 *  nullopt unless all of @p text is a number from 0 to maxWorkers. */
std::optional<unsigned> parseWorkerCount(std::string_view text);

/**
 * Worker count to use when the caller didn't pick one: PERFORMA_JOBS
 * when set and not 0, else std::thread::hardware_concurrency()
 * (minimum 1, at most maxWorkers). A PERFORMA_JOBS value that
 * parseWorkerCount() refuses is FATAL.
 */
unsigned defaultWorkerCount();

} // namespace performa::campaign

#endif // PERFORMA_CAMPAIGN_THREAD_POOL_HH
