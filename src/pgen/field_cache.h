// Shared per-node read cache for product-generation consumers.
//
// Product workers on one client node request heavily overlapping field sets
// (every worker derives its products from the same forecast output), so the
// node keeps one FieldCache:
//
//   * residency — recently read fields stay resident under a pluggable
//     eviction policy: plain LRU over an entry-count budget, or a size-aware
//     LRU over a byte budget (weather fields vary by orders of magnitude
//     between surface and model-level parameters);
//   * single-flight coalescing — K concurrent requests for one field issue
//     exactly one DAOS read: the first caller leads the fetch, later callers
//     park on the in-flight entry and share its outcome (including failure).
//
// The cache is a pure simulation-substrate object: it stores field *sizes*,
// not payloads (the simulator's digest payload mode), and synchronises with
// the deterministic scheduler primitives, so results are bit-reproducible.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>

#include "common/status.h"
#include "common/units.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace nws::pgen {

enum class EvictionPolicy {
  lru,       // bound the number of resident fields
  size_lru,  // bound the resident bytes (size-aware LRU)
};

EvictionPolicy eviction_policy_by_name(const std::string& name);

struct CacheConfig {
  EvictionPolicy policy = EvictionPolicy::lru;
  /// LRU policy: max resident entries.  0 disables residency entirely —
  /// single-flight coalescing of concurrent requests still applies.
  std::size_t capacity_fields = 64;
  /// Size-aware policy: max resident bytes (0 again disables residency).
  /// An entry larger than the whole budget is never admitted.
  Bytes capacity_bytes = 256_MiB;
};

struct CacheStats {
  std::uint64_t hits = 0;       // served from residency
  std::uint64_t misses = 0;     // led a fetch
  std::uint64_t coalesced = 0;  // joined an in-flight fetch
  std::uint64_t evictions = 0;
  Bytes bytes_evicted = 0;
  Bytes resident_bytes = 0;       // current
  Bytes peak_resident_bytes = 0;  // high-water mark
};

class FieldCache {
 public:
  FieldCache(sim::Scheduler& sched, CacheConfig config);
  FieldCache(const FieldCache&) = delete;
  FieldCache& operator=(const FieldCache&) = delete;

  enum class Source { hit, coalesced, fetched };

  struct Outcome {
    Status status = Status::ok();  // a leader's fetch failure reaches every waiter
    Bytes size = 0;
    Source source = Source::fetched;
  };

  /// A borrowed factory producing the one DAOS read of a cache miss
  /// (typically admission-controlled FieldIo::read): any callable returning
  /// sim::Task<Result<Bytes>>, referenced, not copied.  Invoked at most once
  /// per miss, however many callers are waiting on the key.
  class Fetcher {
   public:
    template <typename F>
      requires(!std::is_same_v<std::remove_cvref_t<F>, Fetcher>)
    Fetcher(F&& fetch)  // NOLINT: implicit by design, a lambda converts at the call
        : callable_(std::addressof(fetch)), invoke_([](const void* callable) {
            using Callable = std::remove_reference_t<F>;
            return (*static_cast<Callable*>(const_cast<void*>(callable)))();
          }) {}

    sim::Task<Result<Bytes>> operator()() const { return invoke_(callable_); }

   private:
    const void* callable_;
    sim::Task<Result<Bytes>> (*invoke_)(const void*);
  };

  /// Looks `key` up (the field key's canonical rendering); on a miss the
  /// calling coroutine leads `fetch` while concurrent callers for the same
  /// key park on the in-flight entry (single-flight).  `key` and the
  /// callable behind `fetch` are held by reference: await the task in the
  /// calling expression.
  sim::Task<Outcome> get_or_fetch(const std::string& key, Fetcher fetch);

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] const CacheConfig& config() const { return config_; }
  [[nodiscard]] std::size_t resident_fields() const { return lru_.size(); }
  [[nodiscard]] bool resident(const std::string& key) const { return index_.count(key) != 0; }
  [[nodiscard]] std::size_t in_flight() const { return pending_.size(); }

 private:
  struct Entry {
    std::string key;
    Bytes size = 0;
  };

  /// One in-flight fetch.  Waiters hold the shared_ptr, so the record
  /// outlives the leader erasing it from pending_ before they resume.
  struct Pending {
    explicit Pending(sim::Scheduler& sched) : done(sched) {}
    sim::Gate done;
    Status status = Status::ok();
    Bytes size = 0;
  };

  void insert(const std::string& key, Bytes size);
  void evict_one();

  sim::Scheduler& sched_;
  CacheConfig config_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::unordered_map<std::string, std::shared_ptr<Pending>> pending_;
  CacheStats stats_;
};

}  // namespace nws::pgen
