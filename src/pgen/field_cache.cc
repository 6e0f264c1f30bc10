#include "pgen/field_cache.h"

#include <stdexcept>

namespace nws::pgen {

EvictionPolicy eviction_policy_by_name(const std::string& name) {
  if (name == "lru") return EvictionPolicy::lru;
  if (name == "size-lru" || name == "size_lru") return EvictionPolicy::size_lru;
  throw std::invalid_argument("unknown eviction policy: " + name + " (expected lru or size-lru)");
}

FieldCache::FieldCache(sim::Scheduler& sched, CacheConfig config)
    : sched_(sched), config_(config) {}

void FieldCache::evict_one() {
  const Entry& victim = lru_.back();
  ++stats_.evictions;
  stats_.bytes_evicted += victim.size;
  stats_.resident_bytes -= victim.size;
  index_.erase(victim.key);
  lru_.pop_back();
}

void FieldCache::insert(const std::string& key, Bytes size) {
  switch (config_.policy) {
    case EvictionPolicy::lru:
      if (config_.capacity_fields == 0) return;  // residency disabled
      while (lru_.size() >= config_.capacity_fields) evict_one();
      break;
    case EvictionPolicy::size_lru:
      if (size > config_.capacity_bytes) return;  // never admitted: would evict everything for nothing
      while (!lru_.empty() && stats_.resident_bytes + size > config_.capacity_bytes) evict_one();
      break;
  }
  lru_.push_front(Entry{key, size});
  index_.emplace(key, lru_.begin());
  stats_.resident_bytes += size;
  if (stats_.resident_bytes > stats_.peak_resident_bytes) {
    stats_.peak_resident_bytes = stats_.resident_bytes;
  }
}

sim::Task<FieldCache::Outcome> FieldCache::get_or_fetch(const std::string& key, Fetcher fetch) {
  const auto resident = index_.find(key);
  if (resident != index_.end()) {
    // Touch: move to the MRU position.
    lru_.splice(lru_.begin(), lru_, resident->second);
    ++stats_.hits;
    co_return Outcome{Status::ok(), resident->second->size, Source::hit};
  }

  const auto in_flight = pending_.find(key);
  if (in_flight != pending_.end()) {
    // Single-flight: join the in-flight fetch.  Copy the shared_ptr — the
    // leader erases the pending_ entry before waiters resume.
    ++stats_.coalesced;
    const std::shared_ptr<Pending> pending = in_flight->second;
    co_await pending->done.wait();
    co_return Outcome{pending->status, pending->size, Source::coalesced};
  }

  // Miss: lead the fetch.  The pending entry is registered before the first
  // suspension point, so every concurrent caller coalesces onto it.
  ++stats_.misses;
  const auto pending = std::make_shared<Pending>(sched_);
  pending_.emplace(key, pending);
  Result<Bytes> fetched = co_await fetch();
  if (fetched.is_ok()) {
    pending->size = fetched.value();
  } else {
    pending->status = fetched.status();
  }
  pending_.erase(key);
  if (fetched.is_ok()) insert(key, pending->size);
  pending->done.open();
  co_return Outcome{pending->status, pending->size, Source::fetched};
}

}  // namespace nws::pgen
