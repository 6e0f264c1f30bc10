// Pool-membership service: permanent target exclusion and online rebuild.
//
// Real DAOS maintains a versioned *pool map* describing which targets are
// up; when a storage node is lost for good, the map excludes its targets,
// degraded reads are served from surviving replicas / parity, and a
// background rebuild re-protects the affected shards from the survivors
// onto replacement targets (use-cases doc, "Storage Node Failure and
// Resilvering").  This models that mechanism on the simulator:
//
//   * `exclude()` removes a target from the membership (bumping the map
//     version) — routing in Cluster::resolve_stripe immediately steers new
//     I/O to deterministic replacement targets;
//   * per-shard durability state tracks shards whose data still lives only
//     on survivors (`degraded`, rebuild in flight) or is unrecoverable
//     (`lost`, non-redundant classes);
//   * a bounded set of rebuild worker coroutines drains the rebuild queue,
//     pricing each shard's re-protection as a rate-capped flow over the
//     fabric path the Cluster injects — the flows share engine / node-cap /
//     NIC links with production I/O, so resilvering visibly interferes with
//     the forecast write stream (bench/fig_rebuild_interference).
//
// Capacities of excluded targets are deliberately NOT zeroed: in-flight
// flows over a zeroed link would never complete and wedge the simulation.
// Exclusion is a routing construct; an op already past routing when the
// failure fires is treated as having been in flight (docs/FAULTS.md).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "common/units.h"
#include "daos/object_id.h"
#include "net/flow.h"
#include "sim/scheduler.h"
#include "sim/task.h"

namespace nws::daos {

/// Durability accounting over the pool's lifetime (chaos sweep asserts
/// objects_lost == 0 whenever redundancy >= concurrent failures).  "Object"
/// counters count shard placements: one RP_3 object losing one replica is
/// one degraded shard, rebuilt once.
struct RebuildStats {
  std::uint64_t targets_excluded = 0;
  std::uint64_t objects_degraded = 0;  // shards queued for rebuild
  std::uint64_t objects_rebuilt = 0;   // shards re-protected so far
  std::uint64_t objects_lost = 0;      // shards with no surviving redundancy
  std::uint64_t degraded_reads = 0;    // reads rerouted to survivors/parity
  Bytes bytes_rebuilt = 0;             // payload moved by rebuild flows
  /// Degraded-window edges: first exclusion instant and the completion of the
  /// last rebuild flow so far (-1 until the event happens).  Their difference
  /// is the window during which at least one shard had reduced redundancy.
  sim::TimePoint first_excluded_at = -1;
  sim::TimePoint last_rebuilt_at = -1;
};

/// Durability state of one shard placement (object id x ideal target).
enum class ShardState {
  healthy,   // home target alive, or shard already re-protected
  degraded,  // home lost; data only on surviving replicas/parity until rebuilt
  lost,      // home lost and no redundancy survived
};

/// One queued re-protection: copy `bytes` of shard `oid`@`ideal_target`
/// from a surviving source onto the replacement destination.
struct RebuildItem {
  ObjectId oid;
  std::size_t ideal_target = 0;
  std::size_t source_target = 0;
  std::size_t dest_target = 0;
  Bytes bytes = 0;
};

class PoolMap {
 public:
  PoolMap(sim::Scheduler& sched, net::FlowScheduler& flows, std::size_t target_count);
  PoolMap(const PoolMap&) = delete;
  PoolMap& operator=(const PoolMap&) = delete;

  /// Rebuild pricing knobs (ModelConfig::rebuild_*; set before any failure).
  void set_rebuild_model(std::size_t concurrency, double rate_cap);

  /// Fabric path for one rebuild flow (source target -> destination target);
  /// injected by Cluster so this library needs no topology knowledge.
  using PathBuilder = std::function<std::vector<net::LinkId>(std::size_t, std::size_t)>;
  void set_rebuild_path_builder(PathBuilder builder) { path_builder_ = std::move(builder); }

  // --- membership -----------------------------------------------------------
  [[nodiscard]] std::size_t target_count() const { return alive_.size(); }
  [[nodiscard]] bool alive(std::size_t target) const { return alive_.at(target); }
  /// Bumps on every exclusion (DAOS pool map version).
  [[nodiscard]] std::uint32_t version() const { return version_; }

  /// Permanently removes `target` from the membership (idempotent).
  void exclude(std::size_t target);

  // --- per-shard durability state -------------------------------------------
  [[nodiscard]] ShardState shard_state(const ObjectId& oid, std::size_t ideal_target) const;
  /// Marks a shard unrecoverable (non-redundant class on an excluded target).
  void note_lost(const ObjectId& oid, std::size_t ideal_target);
  /// Counts one read served from survivors/parity instead of its home.
  void note_degraded_read() { ++stats_.degraded_reads; }

  // --- rebuild --------------------------------------------------------------
  /// Queues shard re-protections and spawns worker coroutines up to the
  /// concurrency bound.  Marks every queued shard degraded until its flow
  /// completes.
  void enqueue_rebuild(std::vector<RebuildItem> items);

  /// True when no rebuild work is queued or in flight (convergence check).
  [[nodiscard]] bool rebuild_idle() const { return queue_.empty() && active_workers_ == 0; }

  [[nodiscard]] const RebuildStats& stats() const { return stats_; }

 private:
  sim::Task<void> rebuild_worker();

  using ShardKey = std::pair<ObjectId, std::size_t>;

  sim::Scheduler& sched_;
  net::FlowScheduler& flows_;
  std::vector<bool> alive_;
  std::uint32_t version_ = 1;
  std::size_t concurrency_ = 2;
  double rate_cap_ = 0.0;  // 0: unthrottled
  PathBuilder path_builder_;
  std::deque<RebuildItem> queue_;
  std::size_t active_workers_ = 0;
  std::set<ShardKey> degraded_;
  std::set<ShardKey> lost_;
  RebuildStats stats_;
};

}  // namespace nws::daos
