#ifndef BOLT_OBS_SHARDS_H
#define BOLT_OBS_SHARDS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bolt {
namespace obs {

/**
 * The per-thread shards behind a recorder (MetricsRegistry,
 * TimeSeriesRecorder, Tracer): each recording thread owns one `Shard`
 * that only it writes, and readers walk every shard in creation order.
 *
 * local() finds or creates the calling thread's shard. A thread-local
 * cache (one per Shard type) keyed on an id unique among the instances
 * of that type makes every call after a thread's first lock-free; the
 * cache survives across instances (tests create their own recorders)
 * because a mismatched id falls back to the locked map, which also
 * re-finds a shard when a thread id is reused after join. clear() takes
 * a fresh id, so it invalidates every cache.
 *
 * lock() guards the shard list, and whatever else the owner keeps
 * beside it; iteration, size() and clear() need it held.
 */
template <typename Shard>
class ThreadShards
{
  public:
    ThreadShards() : id_(nextId()) {}

    /** The calling thread's shard, built from `args` on its first use. */
    template <typename... Args>
    Shard& local(const Args&... args)
    {
        uint64_t id = id_.load(std::memory_order_relaxed);
        if (cache_.owner == id && cache_.shard)
            return *cache_.shard;

        std::lock_guard<std::mutex> lock(mutex_);
        Shard*& slot = shardOf_[std::this_thread::get_id()];
        if (!slot) {
            shards_.push_back(std::make_unique<Shard>(args...));
            slot = shards_.back().get();
        }
        cache_.owner = id;
        cache_.shard = slot;
        return *slot;
    }

    std::unique_lock<std::mutex> lock() const
    {
        return std::unique_lock<std::mutex>(mutex_);
    }

    /** Shards in creation order (hold lock()). */
    auto begin() const { return shards_.begin(); }
    auto end() const { return shards_.end(); }
    size_t size() const { return shards_.size(); }

    /** Drop every shard and invalidate every thread's cache (hold lock()). */
    void clear()
    {
        shards_.clear();
        shardOf_.clear();
        id_.store(nextId(), std::memory_order_relaxed);
    }

  private:
    struct Cache
    {
        uint64_t owner = 0;
        Shard* shard = nullptr;
    };

    static uint64_t nextId()
    {
        static std::atomic<uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
    }

    static inline thread_local Cache cache_;

    std::atomic<uint64_t> id_; ///< Validates cache_; fresh after clear().
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::map<std::thread::id, Shard*> shardOf_;
};

} // namespace obs
} // namespace bolt

#endif // BOLT_OBS_SHARDS_H
