#ifndef BOLT_UTIL_THREAD_POOL_H
#define BOLT_UTIL_THREAD_POOL_H

#include <cstddef>
#include <functional>

namespace bolt {
namespace util {

/**
 * Size of the process-wide worker pool behind parallelFor(). The pool
 * itself is private to thread_pool.cc; the first parallelFor() makes it.
 */
class ThreadPool
{
  public:
    ThreadPool() = delete;

    /**
     * Resize the pool (the --threads flag of the CLI and bench drivers).
     * Call it at startup, never while parallel work is in flight. n = 0
     * restores hardware concurrency.
     */
    static void setGlobalThreads(unsigned n);

    /** Worker count the pool has (or would be created with). */
    static unsigned globalThreads();
};

/**
 * Run body(i) for every i in [begin, end): the pool's workers and the
 * calling thread claim contiguous chunks of `grain` indices from one
 * shared cursor until none is left. When a chunk throws, every other
 * chunk still runs and the first exception is rethrown in the caller.
 * The whole range runs inline on the calling thread when the pool has
 * one worker, when it holds one index, and when another parallelFor is
 * open (nested in one of its chunks, or called from a second thread).
 *
 * Execution order across chunks is unspecified. Results are
 * bit-identical regardless of thread count iff body(i) touches only
 * state owned by index i (slot i of an output vector, an RNG stream
 * keyed by i), never an accumulator shared across indices;
 * tests/test_determinism.cc checks that Bolt's parallel stages do.
 *
 * @param grain Indices per chunk; 0 picks (end-begin) / (4 * workers),
 *              at least 1.
 */
void parallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& body, size_t grain = 0);

/** Upper bound of --threads: 0 means hardware concurrency, anything
 *  above this is a typo, not a machine. */
constexpr int kMaxThreadsFlag = 512;

} // namespace util
} // namespace bolt

#endif // BOLT_UTIL_THREAD_POOL_H
