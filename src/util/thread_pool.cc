#include "thread_pool.h"

#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <exception>

namespace bolt {
namespace util {

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.push_back(std::make_unique<Worker>());
    threads_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(wakeMutex_);
        stop_.store(true, std::memory_order_release);
    }
    wakeCv_.notify_all();
    for (auto& t : threads_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    size_t idx = nextQueue_.fetch_add(1, std::memory_order_relaxed) %
                 workers_.size();
    {
        std::lock_guard<std::mutex> lock(workers_[idx]->mutex);
        workers_[idx]->tasks.push_back(std::move(task));
    }
    size_t depth = pending_.fetch_add(1, std::memory_order_release) + 1;
    auto& metrics = obs::MetricsRegistry::global();
    metrics.add(obs::MetricId::kPoolSubmits);
    metrics.gaugeMax(obs::MetricId::kPoolQueueDepthPeak,
                     static_cast<double>(depth));
    wakeCv_.notify_one();
}

bool
ThreadPool::acquire(size_t home, std::function<void()>& out)
{
    size_t n = workers_.size();
    // Own deque first, back (LIFO) for locality.
    if (home < n) {
        Worker& w = *workers_[home];
        std::lock_guard<std::mutex> lock(w.mutex);
        if (!w.tasks.empty()) {
            out = std::move(w.tasks.back());
            w.tasks.pop_back();
            pending_.fetch_sub(1, std::memory_order_acq_rel);
            return true;
        }
    }
    // Steal from siblings, front (FIFO) so thieves take the oldest work.
    for (size_t k = 1; k <= n; ++k) {
        size_t victim = (home + k) % n;
        Worker& w = *workers_[victim];
        std::lock_guard<std::mutex> lock(w.mutex);
        if (!w.tasks.empty()) {
            out = std::move(w.tasks.front());
            w.tasks.pop_front();
            pending_.fetch_sub(1, std::memory_order_acq_rel);
            // A worker taking from a sibling's deque is a steal; a
            // non-worker helper (home == n) has no deque to prefer.
            if (home < n)
                obs::MetricsRegistry::global().add(
                    obs::MetricId::kPoolSteals);
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerLoop(size_t idx)
{
    std::function<void()> task;
    for (;;) {
        if (acquire(idx, task)) {
            task();
            task = nullptr;
            obs::MetricsRegistry::global().add(
                obs::MetricId::kPoolTasksExecuted);
            continue;
        }
        std::unique_lock<std::mutex> lock(wakeMutex_);
        wakeCv_.wait(lock, [this] {
            return stop_.load(std::memory_order_acquire) ||
                   pending_.load(std::memory_order_acquire) > 0;
        });
        if (stop_.load(std::memory_order_acquire) &&
            pending_.load(std::memory_order_acquire) == 0) {
            return;
        }
    }
}

void
ThreadPool::parallelFor(size_t begin, size_t end,
                        const std::function<void(size_t)>& body,
                        size_t grain)
{
    if (end <= begin)
        return;
    size_t n = end - begin;
    unsigned tc = threadCount();
    if (tc <= 1 || n == 1) {
        for (size_t i = begin; i < end; ++i)
            body(i);
        return;
    }
    if (grain == 0)
        grain = std::max<size_t>(1, n / (4 * tc));

    struct CallState
    {
        std::atomic<size_t> remaining{0};
        std::mutex mutex;
        std::condition_variable done;
        std::exception_ptr error;
        std::mutex errorMutex;
    };
    auto state = std::make_shared<CallState>();
    size_t chunks = (n + grain - 1) / grain;
    state->remaining.store(chunks, std::memory_order_release);

    for (size_t c = 0; c < chunks; ++c) {
        size_t lo = begin + c * grain;
        size_t hi = std::min(end, lo + grain);
        submit([state, lo, hi, &body] {
            try {
                for (size_t i = lo; i < hi; ++i)
                    body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(state->errorMutex);
                if (!state->error)
                    state->error = std::current_exception();
            }
            if (state->remaining.fetch_sub(
                    1, std::memory_order_acq_rel) == 1) {
                std::lock_guard<std::mutex> lock(state->mutex);
                state->done.notify_all();
            }
        });
    }

    // The caller helps: steal and run outstanding tasks (this call's
    // chunks or anyone else's) until every chunk has finished. Helping
    // makes nested parallelFor deadlock-free — a worker issuing an
    // inner parallelFor executes work instead of blocking its thread.
    std::function<void()> task;
    while (state->remaining.load(std::memory_order_acquire) > 0) {
        if (acquire(workers_.size(), task)) {
            task();
            task = nullptr;
            obs::MetricsRegistry::global().add(
                obs::MetricId::kPoolHelperTasks);
            continue;
        }
        std::unique_lock<std::mutex> lock(state->mutex);
        state->done.wait_for(
            lock, std::chrono::milliseconds(1), [&state] {
                return state->remaining.load(
                           std::memory_order_acquire) == 0;
            });
    }
    if (state->error)
        std::rethrow_exception(state->error);
}

namespace {

std::mutex g_global_mutex;
std::unique_ptr<ThreadPool> g_global_pool;
unsigned g_global_threads = 0; ///< 0 = hardware concurrency.

} // namespace

ThreadPool&
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(g_global_mutex);
    if (!g_global_pool)
        g_global_pool = std::make_unique<ThreadPool>(g_global_threads);
    return *g_global_pool;
}

void
ThreadPool::setGlobalThreads(unsigned n)
{
    std::lock_guard<std::mutex> lock(g_global_mutex);
    g_global_threads = n;
    if (g_global_pool &&
        g_global_pool->threadCount() !=
            (n == 0 ? std::max(1u, std::thread::hardware_concurrency())
                    : n)) {
        g_global_pool.reset();
    }
}

unsigned
ThreadPool::globalThreads()
{
    std::lock_guard<std::mutex> lock(g_global_mutex);
    if (g_global_pool)
        return g_global_pool->threadCount();
    return g_global_threads == 0
               ? std::max(1u, std::thread::hardware_concurrency())
               : g_global_threads;
}

void
parallelFor(size_t begin, size_t end,
            const std::function<void(size_t)>& body, size_t grain)
{
    ThreadPool::global().parallelFor(begin, end, body, grain);
}

} // namespace util
} // namespace bolt
