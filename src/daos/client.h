// DAOS client API for simulated processes.
//
// Mirrors the subset of the DAOS C API the paper's field I/O functions use:
// pool connect, container create/open, Key-Value put/get/remove/list, and
// Array create/open/write/read — each returning a coroutine that consumes
// simulated time according to the model (RPC latencies, per-target service
// via network flows, KV transaction serialisation, striping fan-out).
//
// One Client per simulated process; the endpoint identifies the client node
// and the socket the process is pinned to.  Handles are lightweight values;
// closing them costs the (small) local handle teardown time, mirroring how
// the paper's benchmark caches pool and container connections.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "daos/cluster.h"
#include "obs/trace.h"
#include "sim/task.h"

namespace nws::daos {

struct PoolHandle {
  bool connected = false;
};

struct ContHandle {
  Container* container = nullptr;
  /// Snapshot pin: reads through this handle observe exactly this committed
  /// epoch; kEpochLatest means the live head (uncommitted writes included).
  Epoch epoch = kEpochLatest;
  [[nodiscard]] bool valid() const { return container != nullptr; }
  [[nodiscard]] bool pinned() const { return epoch != kEpochLatest; }
};

struct KvHandle {
  Container* container = nullptr;
  ObjectId oid;
  KvObject* kv = nullptr;
  Epoch epoch = kEpochLatest;  // inherited from the container handle
  [[nodiscard]] bool valid() const { return kv != nullptr; }
  [[nodiscard]] bool pinned() const { return epoch != kEpochLatest; }
};

struct ArrayHandle {
  Container* container = nullptr;
  ObjectId oid;
  ArrayObject* array = nullptr;
  std::size_t lead_target = 0;
  Epoch epoch = kEpochLatest;  // inherited from the container handle
  [[nodiscard]] bool valid() const { return array != nullptr; }
  [[nodiscard]] bool pinned() const { return epoch != kEpochLatest; }
};

/// Per-client operation counters.
struct ClientStats {
  std::uint64_t kv_puts = 0;
  std::uint64_t kv_gets = 0;
  std::uint64_t array_writes = 0;
  std::uint64_t array_reads = 0;
  Bytes bytes_written = 0;
  Bytes bytes_read = 0;
  // Fault-injection observability: how often this client's requests were
  // dropped (waited out the RPC timeout), hit an injected transient error,
  // or were re-driven by a caller's retry policy (FieldIo::note_retry).
  std::uint64_t rpc_timeouts = 0;
  std::uint64_t transient_errors = 0;
  std::uint64_t op_retries = 0;
};

/// Accumulates one process's counters into a run-wide total (harness
/// aggregation; feeds the run's metrics snapshot).
inline ClientStats& operator+=(ClientStats& a, const ClientStats& b) {
  a.kv_puts += b.kv_puts;
  a.kv_gets += b.kv_gets;
  a.array_writes += b.array_writes;
  a.array_reads += b.array_reads;
  a.bytes_written += b.bytes_written;
  a.bytes_read += b.bytes_read;
  a.rpc_timeouts += b.rpc_timeouts;
  a.transient_errors += b.transient_errors;
  a.op_retries += b.op_retries;
  return a;
}

class Client {
 public:
  /// `salt` individualises the jitter stream (use the global process rank).
  Client(Cluster& cluster, net::Endpoint endpoint, std::uint64_t salt);

  [[nodiscard]] const ClientStats& stats() const { return stats_; }
  [[nodiscard]] Cluster& cluster() { return cluster_; }

  /// Records one retry attempt driven by a caller's retry policy (e.g.
  /// fdb::FieldIo backoff) against this client's stats.
  void note_retry() { ++stats_.op_retries; }

  /// Trace attribution for this client's spans.  Defaults to the endpoint's
  /// node/socket; the harness overrides it with the precise global rank
  /// (several ranks share a socket).  Coroutine frames interleave on one OS
  /// thread, so attribution must ride on the Client, not on a thread-local.
  void set_trace_actor(obs::Actor actor) { actor_ = actor; }
  [[nodiscard]] obs::Actor trace_actor() const { return actor_; }

  /// Tags subsequent op spans with the workload iteration (op index).
  void set_trace_iteration(std::uint32_t iteration) { trace_iteration_ = iteration; }

  // --- pool / container -------------------------------------------------------
  sim::Task<PoolHandle> pool_connect();
  sim::Task<Status> cont_create(const Uuid& uuid);
  sim::Task<Result<ContHandle>> cont_open(const Uuid& uuid);

  /// Opens the pool's main container (always exists).
  sim::Task<ContHandle> main_cont_open();

  // --- epochs ---------------------------------------------------------------
  // The DAOS epoch model (docs/EPOCHS.md): writes land at the container's
  // pending epoch; commit publishes them; snapshot handles pin a committed
  // epoch for torn-read-free reads while later writes stream in.

  /// Publishes the container's pending epoch (daos_cont_commit-alike) and
  /// aggregates versions past the retention window.  Fails on snapshot
  /// handles and under injected faults (safe to retry: commit is
  /// idempotent-adjacent — a retried commit publishes the next epoch).
  sim::Task<Result<Epoch>> cont_commit(ContHandle& handle);

  /// Opens a snapshot handle pinned at `epoch` (kEpochLatest: the newest
  /// committed epoch).  Reads through the returned handle — and through
  /// kv/array handles opened from it — observe exactly that epoch.
  sim::Task<Result<ContHandle>> cont_snapshot(ContHandle handle, Epoch epoch = kEpochLatest);

  /// Releases a snapshot pin and invalidates the handle.  Local teardown:
  /// never faults (a leaked pin would wedge retention forever).
  sim::Task<Status> snapshot_close(ContHandle& handle);

  // --- Key-Value objects --------------------------------------------------------
  /// Opens (materialising on first use) the KV object `oid` in `cont`.
  sim::Task<KvHandle> kv_open(ContHandle cont, const ObjectId& oid);
  sim::Task<Status> kv_put(KvHandle& handle, const std::string& key, std::string value);
  /// Conditional insert (DAOS_COND_KEY_INSERT): stores `key` only if it is
  /// absent at the newest state, failing with already_exists otherwise.  The
  /// check-and-put is one serialised transaction on the object — concurrent
  /// inserters of the same key see exactly one winner — which is what lets
  /// a namespace build exclusive create/mkdir on top of plain KV objects.
  sim::Task<Status> kv_put_if_absent(KvHandle& handle, const std::string& key, std::string value);
  sim::Task<Result<std::string>> kv_get(KvHandle& handle, const std::string& key);
  sim::Task<Status> kv_remove(KvHandle& handle, const std::string& key);
  sim::Task<std::vector<std::string>> kv_list(KvHandle& handle);
  sim::Task<void> kv_close(KvHandle& handle);

  // --- Array objects --------------------------------------------------------------
  sim::Task<Result<ArrayHandle>> array_create(ContHandle cont, const ObjectId& oid);
  sim::Task<Result<ArrayHandle>> array_open(ContHandle cont, const ObjectId& oid);
  sim::Task<Status> array_write(ArrayHandle& handle, Bytes offset, const std::uint8_t* data, Bytes len);
  sim::Task<Result<Bytes>> array_read(ArrayHandle& handle, Bytes offset, std::uint8_t* out, Bytes len);
  sim::Task<Bytes> array_get_size(ArrayHandle& handle);
  sim::Task<void> array_close(ArrayHandle& handle);
  /// Destroys an array object (daos_array_destroy), releasing its SCM
  /// allocations — what dfs unlink and a replacing rename reclaim with.
  sim::Task<Status> array_destroy(ContHandle cont, const ObjectId& oid);

 private:
  /// Round-trip RPC latency to the engine hosting `target`, plus jittered
  /// fixed overhead.
  sim::Task<void> rpc(std::size_t target_index, sim::Duration overhead);

  /// Consults the cluster's chaos FaultPlan after the request RPC and before
  /// any functional state changes, so a failed op is always safe to retry:
  /// `unavailable` during a target outage window, `timeout` after waiting out
  /// a dropped RPC, `io_error` for a transient injected fault.
  sim::Task<Status> fault_check(std::size_t target_index);
  [[nodiscard]] double jitter() { return rng_.lognormal_jitter(cluster_.model().op_jitter_sigma); }

  /// One array op's resolved fan-out after pool-map routing.
  struct IoPlan {
    std::size_t lead = 0;  // target serving the op RPC / metadata
    /// Per-target data-flow byte counts (replicas and parity included).
    std::vector<std::pair<std::size_t, Bytes>> extents;
    Bytes decode_bytes = 0;  // bytes reconstructed from EC parity
    bool degraded = false;   // read served off survivors/parity
    Status status;           // data_loss when the op cannot be served
  };

  /// Splits a [offset, offset+len) array extent into per-target byte counts
  /// by object class: chunk round-robin for the striping classes, full-range
  /// fan-out to every replica for RP_r writes (single surviving replica for
  /// reads), k-way data split plus ceil(len/k) parity updates for EC_k+p —
  /// with unavailable data members reconstructed from parity on reads.
  /// Coalesces to at most max_shard_flows groups.  `default_lead` is kept as
  /// the plan's lead on the healthy-pool fast path.
  [[nodiscard]] IoPlan plan_array_io(const ObjectId& oid, Bytes offset, Bytes len, bool is_write,
                                     std::size_t default_lead) const;

  /// First stripe member whose data is currently readable (array
  /// create/open/destroy lead); data_loss when the whole stripe is gone.
  [[nodiscard]] Result<std::size_t> lead_target(const ObjectId& oid) const;

  /// One KV op's resolved routing after pool-map exclusions.
  struct KvRoute {
    std::size_t primary = 0;            // target serving the op
    std::vector<std::size_t> replicas;  // extra put fan-out (RP classes)
    bool degraded = false;              // read rerouted off the hashed member
    Status status;                      // data_loss when no member can serve
  };
  [[nodiscard]] KvRoute kv_route(const ObjectId& oid, const std::string& key, bool is_write) const;

  /// Enters `kv` as a writer and returns the service bytes one update costs
  /// its primary shard, contention surcharges included; the caller charges
  /// them and calls writer_exit() once the update is applied.
  Bytes kv_update_enter(KvObject& kv);
  /// Forwards one update to each replica in `replicas` (replicated classes):
  /// the put is not durable until all of them have serviced it.
  sim::Task<void> kv_replicate(const std::vector<std::size_t>& replicas);

  /// Runs the per-shard data flows of one array op concurrently.
  sim::Task<void> run_data_flows(const std::vector<std::pair<std::size_t, Bytes>>& extents, bool is_write);

  /// Extra per-op cost when operating outside the main container
  /// (model_config.h: container layer derate).
  sim::Task<void> container_indirection(Container* container, std::size_t target_index, bool is_write);

  Cluster& cluster_;
  net::Endpoint endpoint_;
  Rng rng_;
  ClientStats stats_;
  obs::Actor actor_;
  std::uint32_t trace_iteration_ = 0;
};

}  // namespace nws::daos
