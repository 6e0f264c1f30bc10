#include "daos/pool_map.h"

#include <limits>
#include <stdexcept>

#include "obs/trace.h"

namespace nws::daos {

PoolMap::PoolMap(sim::Scheduler& sched, net::FlowScheduler& flows, std::size_t target_count)
    : sched_(sched), flows_(flows), alive_(target_count, true) {
  if (target_count == 0) throw std::invalid_argument("PoolMap over an empty pool");
}

void PoolMap::set_rebuild_model(std::size_t concurrency, double rate_cap) {
  concurrency_ = concurrency > 0 ? concurrency : 1;
  rate_cap_ = rate_cap;
}

void PoolMap::exclude(std::size_t target) {
  if (!alive_.at(target)) return;
  alive_[target] = false;
  ++version_;
  ++stats_.targets_excluded;
  if (stats_.first_excluded_at < 0) stats_.first_excluded_at = sched_.now();
}

ShardState PoolMap::shard_state(const ObjectId& oid, std::size_t ideal_target) const {
  if (alive_.at(ideal_target)) return ShardState::healthy;
  const ShardKey key{oid, ideal_target};
  if (lost_.count(key) != 0) return ShardState::lost;
  if (degraded_.count(key) != 0) return ShardState::degraded;
  // Either re-protected onto its replacement target, or the shard never
  // held data (objects created after the exclusion route around it).
  return ShardState::healthy;
}

void PoolMap::note_lost(const ObjectId& oid, std::size_t ideal_target) {
  if (lost_.insert(ShardKey{oid, ideal_target}).second) ++stats_.objects_lost;
}

void PoolMap::enqueue_rebuild(std::vector<RebuildItem> items) {
  for (RebuildItem& item : items) {
    degraded_.insert(ShardKey{item.oid, item.ideal_target});
    ++stats_.objects_degraded;
    queue_.push_back(item);
  }
  while (active_workers_ < concurrency_ && active_workers_ < queue_.size()) {
    ++active_workers_;
    sched_.spawn(rebuild_worker());
  }
}

sim::Task<void> PoolMap::rebuild_worker() {
  while (!queue_.empty()) {
    const RebuildItem item = queue_.front();
    queue_.pop_front();
    obs::Span span("rebuild.object", "rebuild", {}, 0, static_cast<double>(item.bytes));
    if (item.bytes > 0 && path_builder_ && item.dest_target != item.ideal_target) {
      const double cap = rate_cap_ > 0.0 ? rate_cap_ : std::numeric_limits<double>::infinity();
      co_await flows_.transfer(path_builder_(item.source_target, item.dest_target), item.bytes, cap);
    }
    degraded_.erase(ShardKey{item.oid, item.ideal_target});
    ++stats_.objects_rebuilt;
    stats_.bytes_rebuilt += item.bytes;
    stats_.last_rebuilt_at = sched_.now();
  }
  --active_workers_;
}

}  // namespace nws::daos
