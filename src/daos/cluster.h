// Simulated DAOS cluster: servers, engines, targets, SCM and the fabric.
//
// A Cluster assembles the whole testbed the paper benchmarks on:
//
//   * `server_nodes` dual-socket nodes, one DAOS engine per used socket,
//     12 targets per engine, each socket carrying an interleaved region of
//     six Optane DCPMMs (paper 6.1);
//   * `client_nodes` dual-socket client nodes whose processes are pinned
//     balanced across sockets (paper 6.1.2);
//   * a dual-rail OmniPath fabric with the configured OFI provider.
//
// It owns the functional state (one pool spanning all targets, containers,
// objects), the placement function (object id -> targets), and the timing
// resources (per-target service links, SCM media links, per-node read caps).
// Clients (daos/client.h) issue operations against it.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "daos/model_config.h"
#include "fault/fault_plan.h"
#include "daos/object_id.h"
#include "daos/objects.h"
#include "daos/pool_map.h"
#include "net/topology.h"
#include "scm/scm.h"
#include "sim/scheduler.h"

namespace nws::daos {

/// Emulation of issues the paper encountered with DAOS v2.0.1.
struct FaultInjection {
  /// Paper 6.1.1: "use of PSM2 in DAOS is not yet production-ready,
  /// impeding dual-engine per node, dual-rail DAOS deployments."  When set,
  /// cluster validation rejects PSM2 with more than one engine per server
  /// node or more than one client socket in use.
  bool enforce_psm2_single_rail = true;

  /// Paper 7: "our benchmarks with Field I/O in full mode, access pattern A
  /// with low contention failed using more than 8 server nodes."  When set,
  /// container creation starts failing (unavailable) once the pool spans
  /// more than 8 server nodes and more than `container_issue_threshold`
  /// containers exist.
  bool container_create_issue = false;
  std::size_t container_issue_threshold = 64;
};

struct ClusterConfig {
  std::size_t server_nodes = 1;
  std::size_t engines_per_server = 2;  // one per socket (paper 6.1)
  std::size_t targets_per_engine = 12;
  std::size_t client_nodes = 1;
  std::size_t client_sockets_in_use = 2;  // 1 for PSM2 single-rail runs

  net::ProviderProfile provider = net::tcp_provider();

  /// One DCPMM module; each socket's SCM region interleaves 6 of them.
  scm::DcpmmSpec dcpmm;

  ModelConfig model;
  FaultInjection faults;
  /// Seeded chaos fault plan (fault/fault_plan.h).  When any() it is armed at
  /// construction: target slowdown/outage windows, fabric link degradation,
  /// RPC drops and transient errors, all deterministic in fault_spec.seed.
  fault::FaultSpec fault_spec;
  PayloadMode payload_mode = PayloadMode::digest;
  std::uint64_t seed = 1;

  /// Checks structural validity and fault-injection constraints.
  [[nodiscard]] Status validate() const;
};

/// One DAOS target: a shard of an engine's storage, with its own service
/// capacity, backed by the socket's SCM region.
struct Target {
  std::size_t node = 0;    // server node index (== topology node)
  std::size_t socket = 0;  // socket == engine index within node
  std::size_t engine = 0;  // global engine index
  std::size_t region = 0;  // index into Cluster regions
  net::LinkId write_link = net::kInvalidLink;
  net::LinkId read_link = net::kInvalidLink;
};

class Cluster {
 public:
  Cluster(sim::Scheduler& sched, ClusterConfig config);

  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] net::FlowScheduler& flows() { return flows_; }
  [[nodiscard]] const net::Topology& topology() const { return *topology_; }

  // --- structure ------------------------------------------------------------
  [[nodiscard]] std::size_t engine_count() const {
    return config_.server_nodes * config_.engines_per_server;
  }
  [[nodiscard]] std::size_t target_count() const { return targets_.size(); }
  [[nodiscard]] const Target& target(std::size_t i) const { return targets_.at(i); }

  /// Topology node index of client node `c` (clients follow servers).
  [[nodiscard]] std::size_t client_topology_node(std::size_t c) const {
    return config_.server_nodes + c;
  }

  /// Fabric endpoint of process `p` on client node `c` — balanced pinning
  /// across the sockets in use (paper 6.1.2).
  [[nodiscard]] net::Endpoint client_endpoint(std::size_t c, std::size_t p) const {
    return net::Endpoint{client_topology_node(c), p % config_.client_sockets_in_use};
  }

  // --- placement --------------------------------------------------------------
  /// Ideal stripe targets of an object, by class: S1 one target, S2 two, SX
  /// all; RP_r r replicas and EC_k+p k+p shards, walked around the target
  /// ring so no two stripe members share an engine (while engines last) —
  /// one engine loss never takes out two replicas of a shard.
  [[nodiscard]] std::vector<std::size_t> stripe_targets(const ObjectId& oid) const;

  /// Shard target (index into stripe_targets result) for a dkey.
  [[nodiscard]] std::size_t shard_for_key(const ObjectId& oid, const std::string& key) const;

  /// Stripe member index (into stripe_targets) a dkey hashes to.
  [[nodiscard]] std::size_t stripe_member_for_key(const ObjectId& oid, const std::string& key) const;

  /// Where one stripe member's I/O goes after pool-map exclusions.
  struct ShardRoute {
    std::size_t ideal = 0;   // placement-time home
    std::size_t target = 0;  // current home (replacement after exclusion)
    bool available = true;   // data readable at `target`
    bool lost = false;       // redundancy exhausted: reads fail (data_loss)
  };

  /// Resolves every stripe member through the pool map: alive members keep
  /// their home; excluded members route to a deterministic replacement
  /// (first alive unused target ring-walked from the failed home, preferring
  /// fresh engines).  A member mid-rebuild reports available=false (its data
  /// lives only on survivors); a member with no surviving redundancy reports
  /// lost=true.
  [[nodiscard]] std::vector<ShardRoute> resolve_stripe(const ObjectId& oid) const;

  // --- pool membership / rebuild ----------------------------------------------
  [[nodiscard]] PoolMap& pool_map() { return *pool_map_; }
  [[nodiscard]] const PoolMap& pool_map() const { return *pool_map_; }

  /// Permanently excludes `target` from the pool: enumerates every shard it
  /// hosted, marks non-redundant shards lost, and queues rebuild flows that
  /// re-protect redundant shards from survivors onto replacement targets.
  /// Invoked by the FaultPlan's permanent-failure handler; tests call it
  /// directly for deterministic failure placement.  Idempotent.
  void apply_permanent_failure(std::size_t target);

  /// Fabric path of one rebuild flow: source target read side, cross-node
  /// NICs (or UPI), destination write side — shared with production I/O so
  /// resilvering interferes (docs/FAULTS.md).
  [[nodiscard]] std::vector<net::LinkId> rebuild_path(std::size_t src_target,
                                                      std::size_t dst_target) const;

  // --- flow paths -------------------------------------------------------------
  // Connections follow the *client's* rail: a process uses its local NIC,
  // reaching the server node's same-rail NIC; if the engine lives on the
  // other socket the transfer crosses the server's UPI (both directions —
  // this is how multiple client interfaces help against a single-engine
  // server, Table 1 row 2).

  /// Links a write to `target` from `client` crosses (fabric + engine +
  /// target service + SCM media).
  [[nodiscard]] std::vector<net::LinkId> write_path(net::Endpoint client, const Target& target) const;
  /// Links a read from `target` to `client` crosses.
  [[nodiscard]] std::vector<net::LinkId> read_path(net::Endpoint client, const Target& target) const;
  /// Links for server-local service work on a target (metadata): consumes
  /// engine and target capacity but no fabric.
  [[nodiscard]] std::vector<net::LinkId> service_path(std::size_t target_index, bool is_write) const;
  /// Container-layer service work additionally consumes the node I/O cap
  /// (container metadata handling competes with data movement node-wide).
  [[nodiscard]] std::vector<net::LinkId> container_service_path(std::size_t target_index,
                                                                bool is_write) const;

  // --- functional pool / container state --------------------------------------
  [[nodiscard]] Bytes pool_capacity() const;
  [[nodiscard]] Bytes pool_used() const;

  /// Creates a container (fault injection may refuse).  `already_exists` if
  /// the uuid is taken — concurrent md5-derived creators expect this.
  Status create_container(const Uuid& uuid);
  [[nodiscard]] Result<Container*> open_container(const Uuid& uuid);
  [[nodiscard]] std::size_t container_count() const { return containers_.size(); }

  /// The "main" container holding the top-level index (created eagerly; its
  /// uuid is md5("nws:main-container")).
  [[nodiscard]] Container& main_container() { return *main_container_; }

  /// Folded epoch/MVCC accounting over every container (docs/EPOCHS.md).
  [[nodiscard]] EpochStats epoch_stats() const;

  /// Retained object versions pool-wide: (count, logical bytes) — the live
  /// cost of the retention policy at this instant.
  [[nodiscard]] std::pair<std::uint64_t, Bytes> live_versions() const;

  /// Charges `bytes` of pool space to `target`'s SCM region; returns the
  /// (region, allocation id) pair for later reclamation.
  Result<std::pair<std::size_t, std::uint64_t>> charge_capacity(std::size_t target_index, Bytes bytes);

  /// Releases a previously charged allocation (array destroy).
  void release_capacity(std::size_t region_index, std::uint64_t allocation_id);

  [[nodiscard]] scm::ScmRegion& region(std::size_t i) { return *regions_.at(i); }
  [[nodiscard]] std::size_t region_count() const { return regions_.size(); }

  // --- model ------------------------------------------------------------------
  [[nodiscard]] const ModelConfig& model() const { return config_.model; }
  [[nodiscard]] Rng fork_rng(std::uint64_t salt) { return rng_.fork(salt); }

  /// Armed chaos fault plan, or nullptr when fault_spec injects nothing.
  [[nodiscard]] fault::FaultPlan* fault_plan() { return fault_plan_.get(); }

 private:
  void build_topology();
  void build_storage();
  void arm_fault_plan();
  /// Engine-aware ring walk from `base`: prefers targets on engines the
  /// stripe has not used yet (replica/parity anti-affinity).
  [[nodiscard]] std::vector<std::size_t> redundant_stripe(std::size_t base, std::size_t width) const;

  sim::Scheduler& sched_;
  ClusterConfig config_;
  net::FlowScheduler flows_;
  std::unique_ptr<net::Topology> topology_;

  std::vector<std::unique_ptr<scm::ScmRegion>> regions_;
  std::vector<net::LinkId> region_write_links_;
  std::vector<net::LinkId> region_read_links_;
  std::vector<net::LinkId> node_io_caps_;        // per server node
  std::vector<net::LinkId> engine_write_links_;  // per engine
  std::vector<net::LinkId> engine_read_links_;   // per engine
  std::vector<Target> targets_;

  std::unordered_map<Uuid, std::unique_ptr<Container>, UuidHash> containers_;
  Container* main_container_ = nullptr;
  std::size_t containers_created_ = 0;

  std::unique_ptr<fault::FaultPlan> fault_plan_;
  std::unique_ptr<PoolMap> pool_map_;
  Rng rng_;
};

}  // namespace nws::daos
