#include "thread_pool.h"

#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace bolt {
namespace util {

namespace {

unsigned
workersFor(unsigned threads)
{
    return threads ? threads
                   : std::max(1u, std::thread::hardware_concurrency());
}

/**
 * The worker pool behind parallelFor(). At most one job is open at a
 * time; its caller and the workers it wakes claim chunks from the job's
 * atomic cursor without a lock. The mutex only opens and closes the
 * job, counts the workers still claiming and keeps the first exception.
 */
class Pool
{
  public:
    explicit Pool(unsigned threads)
    {
        for (unsigned i = 0; i < threads; ++i)
            threads_.emplace_back([this] { workerLoop(); });
    }

    ~Pool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        for (auto& t : threads_)
            t.join();
    }

    void parallelFor(size_t begin, size_t end,
                     const std::function<void(size_t)>& body, size_t grain)
    {
        if (end <= begin)
            return;
        size_t n = end - begin;
        std::unique_lock<std::mutex> lock(mutex_);
        if (threads_.size() <= 1 || n == 1 || open_) {
            lock.unlock();
            for (size_t i = begin; i < end; ++i)
                body(i);
            return;
        }
        if (grain == 0)
            grain = std::max<size_t>(1, n / (4 * threads_.size()));
        body_ = &body;
        begin_ = begin;
        end_ = end;
        grain_ = grain;
        chunks_ = (n + grain - 1) / grain;
        next_.store(0, std::memory_order_relaxed);
        open_ = true;
        ++generation_;
        lock.unlock();
        wake_.notify_all();

        obs::MetricsRegistry::global().add(obs::MetricId::kPoolHelperTasks,
                                           claimChunks());

        lock.lock();
        idle_.wait(lock, [this] { return claimers_ == 0; });
        open_ = false;
        std::exception_ptr error = std::exchange(error_, nullptr);
        lock.unlock();
        if (error)
            std::rethrow_exception(error);
    }

  private:
    /** Run chunks of the open job until the cursor passes the last one;
     *  returns how many this thread ran. */
    uint64_t claimChunks()
    {
        uint64_t ran = 0;
        for (;;) {
            size_t c = next_.fetch_add(1, std::memory_order_relaxed);
            if (c >= chunks_)
                return ran;
            size_t lo = begin_ + c * grain_;
            size_t hi = std::min(end_, lo + grain_);
            try {
                for (size_t i = lo; i < hi; ++i)
                    (*body_)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex_);
                if (!error_)
                    error_ = std::current_exception();
            }
            ++ran;
        }
    }

    void workerLoop()
    {
        uint64_t seen = 0;
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            wake_.wait(lock, [&] {
                return stop_ || (open_ && generation_ != seen);
            });
            if (stop_)
                return;
            seen = generation_;
            ++claimers_;
            lock.unlock();
            obs::MetricsRegistry::global().add(
                obs::MetricId::kPoolTasksExecuted, claimChunks());
            lock.lock();
            if (--claimers_ == 0)
                idle_.notify_one();
        }
    }

    // The open job: written under mutex_ while no worker claims.
    const std::function<void(size_t)>* body_ = nullptr;
    size_t begin_ = 0;
    size_t end_ = 0;
    size_t grain_ = 1;
    size_t chunks_ = 0;
    std::atomic<size_t> next_{0}; ///< Next chunk to claim.

    std::mutex mutex_;
    std::condition_variable wake_; ///< A job opened, or the pool stops.
    std::condition_variable idle_; ///< The last claimer left the job.
    bool open_ = false;
    bool stop_ = false;
    uint64_t generation_ = 0; ///< Jobs opened so far.
    unsigned claimers_ = 0;   ///< Workers inside the open job.
    std::exception_ptr error_;
    std::vector<std::thread> threads_;
};

std::mutex g_global_mutex;
std::unique_ptr<Pool> g_global_pool;
unsigned g_global_threads = 0; ///< 0 = hardware concurrency.

} // namespace

void
ThreadPool::setGlobalThreads(unsigned n)
{
    std::lock_guard<std::mutex> lock(g_global_mutex);
    if (workersFor(n) != workersFor(g_global_threads))
        g_global_pool.reset();
    g_global_threads = n;
}

unsigned
ThreadPool::globalThreads()
{
    std::lock_guard<std::mutex> lock(g_global_mutex);
    return workersFor(g_global_threads);
}

void
parallelFor(size_t begin, size_t end,
            const std::function<void(size_t)>& body, size_t grain)
{
    std::unique_lock<std::mutex> lock(g_global_mutex);
    if (!g_global_pool)
        g_global_pool = std::make_unique<Pool>(workersFor(g_global_threads));
    Pool& pool = *g_global_pool;
    lock.unlock();
    pool.parallelFor(begin, end, body, grain);
}

} // namespace util
} // namespace bolt
