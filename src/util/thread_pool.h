#ifndef BOLT_UTIL_THREAD_POOL_H
#define BOLT_UTIL_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bolt {
namespace util {

/**
 * Work-stealing thread pool shared by every parallel stage of the
 * simulator (per-server detection, fleet shards, bench trial sweeps).
 *
 * Structure: one task deque per worker. A worker pops from the back of
 * its own deque (LIFO, cache-friendly) and, when empty, steals from the
 * front of a sibling's deque (FIFO, oldest-first — the classic
 * work-stealing discipline). parallelFor() is the only way in: it
 * distributes its chunks round-robin across the deques and the calling
 * thread runs chunks too.
 *
 * Thread-safety: parallelFor() may be called from any thread, including
 * from inside a pool task (nested parallelFor is supported — the inner
 * caller helps execute outstanding work instead of blocking a worker).
 * Construction and destruction must not race with use.
 *
 * Determinism contract: the pool schedules tasks in an unspecified
 * order. Callers that need thread-count-invariant results must make
 * every task independent (own RNG stream, own output slot) — see
 * Rng::stream() and the parallelFor() docs. All of Bolt's hot paths
 * follow this discipline, which is what tests/test_determinism.cc
 * verifies.
 */
class ThreadPool
{
  public:
    /**
     * @param threads Worker count; 0 means std::thread::hardware_concurrency
     *                (at least 1). A pool of size 1 still spawns one
     *                worker, though its parallelFor() runs inline.
     */
    explicit ThreadPool(unsigned threads = 0);

    /** Joins all workers after draining outstanding tasks. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of worker threads. */
    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Run body(i) for every i in [begin, end), distributing contiguous
     * chunks of ~`grain` indices across the pool; the calling thread
     * participates by stealing chunks while it waits. Returns when every
     * index has run; the first exception thrown by any chunk is
     * rethrown in the caller.
     *
     * Execution order across chunks is unspecified. Results are
     * bit-identical regardless of thread count iff body(i) touches only
     * state owned by index i (slot i of an output vector, an RNG stream
     * keyed by i) — never an accumulator shared across indices.
     *
     * @param grain Indices per chunk; 0 picks end-begin / (4 * threads),
     *              at least 1.
     */
    void parallelFor(size_t begin, size_t end,
                     const std::function<void(size_t)>& body,
                     size_t grain = 0);

    /**
     * The process-wide pool used by the free parallelFor(). Created on
     * first use with hardware concurrency (or the count last given to
     * setGlobalThreads).
     */
    static ThreadPool& global();

    /**
     * Resize the global pool (the --threads flag of the CLI and bench
     * drivers). Must not be called while parallel work is in flight;
     * call it once at startup. n = 0 restores hardware concurrency.
     */
    static void setGlobalThreads(unsigned n);

    /** Worker count the global pool has (or would be created with). */
    static unsigned globalThreads();

  private:
    struct Worker
    {
        std::deque<std::function<void()>> tasks;
        std::mutex mutex;
    };

    /** Enqueue one task of a parallelFor() call. */
    void submit(std::function<void()> task);
    void workerLoop(size_t idx);
    /** Pop from own back, else steal from siblings' fronts. */
    bool acquire(size_t home, std::function<void()>& out);

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;
    std::mutex wakeMutex_;
    std::condition_variable wakeCv_;
    std::atomic<size_t> pending_{0}; ///< Tasks enqueued but not started.
    std::atomic<size_t> nextQueue_{0};
    std::atomic<bool> stop_{false};
};

/**
 * parallelFor on the global pool: run body(i) for i in [begin, end).
 * See ThreadPool::parallelFor for the determinism contract.
 */
void parallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& body, size_t grain = 0);

/** Upper bound of --threads: 0 means hardware concurrency, anything
 *  above this is a typo, not a machine. */
constexpr int kMaxThreadsFlag = 512;

} // namespace util
} // namespace bolt

#endif // BOLT_UTIL_THREAD_POOL_H
