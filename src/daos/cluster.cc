#include "daos/cluster.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/table.h"

namespace nws::daos {
namespace {

constexpr std::size_t kDcpmmPerSocket = 6;  // AppDirect interleaved set (paper 6.1)
/// Server nodes beyond which FaultInjection::container_create_issue bites
/// (paper Section 7: "failed using more than 8 server nodes").
constexpr std::size_t kContainerIssueMinServers = 8;

}  // namespace

Status ClusterConfig::validate() const {
  if (server_nodes == 0) return Status::error(Errc::invalid, "at least one server node required");
  if (client_nodes == 0) return Status::error(Errc::invalid, "at least one client node required");
  if (engines_per_server == 0 || engines_per_server > net::kSocketsPerNode) {
    return Status::error(Errc::invalid, "engines_per_server must be 1 or 2 (one per socket)");
  }
  if (targets_per_engine == 0) return Status::error(Errc::invalid, "targets_per_engine must be positive");
  if (client_sockets_in_use == 0 || client_sockets_in_use > net::kSocketsPerNode) {
    return Status::error(Errc::invalid, "client_sockets_in_use must be 1 or 2");
  }
  if (faults.enforce_psm2_single_rail && !provider.supports_dual_rail &&
      (engines_per_server > 1 || client_sockets_in_use > 1)) {
    return Status::error(Errc::unsupported,
                         "PSM2 provider does not support dual-engine / dual-rail deployments "
                         "(DAOS v2.0.1, paper 6.1.1): use engines_per_server=1 and "
                         "client_sockets_in_use=1");
  }
  return Status::ok();
}

Cluster::Cluster(sim::Scheduler& sched, ClusterConfig config)
    : sched_(sched), config_(std::move(config)), flows_(sched), rng_(config_.seed) {
  config_.validate().expect_ok("ClusterConfig::validate");
  build_topology();
  build_storage();
  pool_map_ = std::make_unique<PoolMap>(sched_, flows_, targets_.size());
  pool_map_->set_rebuild_model(config_.model.rebuild_concurrency, config_.model.rebuild_rate_cap);
  pool_map_->set_rebuild_path_builder(
      [this](std::size_t src, std::size_t dst) { return rebuild_path(src, dst); });
  arm_fault_plan();

  const Uuid main_uuid = Uuid::from_string_md5("nws:main-container");
  auto main = std::make_unique<Container>(sched_, main_uuid, /*is_main=*/true,
                                          config_.model.kv_get_concurrency,
                                          config_.model.epoch_retention_depth);
  main_container_ = main.get();
  containers_.emplace(main_uuid, std::move(main));
}

void Cluster::build_topology() {
  net::TopologyConfig tcfg;
  tcfg.nodes = config_.server_nodes + config_.client_nodes;
  tcfg.provider = config_.provider;
  topology_ = std::make_unique<net::Topology>(flows_, tcfg);

  // Table 1 rows 1-2: DAOS read responses over TCP saturate a client NIC
  // well below raw MPI receive throughput (model_config.h:
  // tcp_client_read_efficiency).  Scale the client NIC rx links only.
  const double rx_eff = config_.model.tcp_client_read_efficiency;
  if (config_.provider.name == "tcp" && rx_eff < 1.0) {
    for (std::size_t c = 0; c < config_.client_nodes; ++c) {
      for (std::size_t s = 0; s < net::kSocketsPerNode; ++s) {
        const net::LinkId id = topology_->nic_rx(net::Endpoint{client_topology_node(c), s});
        net::Link& link = flows_.mutable_link(id);
        link.raw_capacity *= rx_eff;
        if (!link.efficiency.empty()) link.efficiency = link.efficiency.scaled(rx_eff);
      }
    }
  }
}

void Cluster::build_storage() {
  const ModelConfig& m = config_.model;
  const std::size_t engines = engine_count();

  // Global service efficiency: empirical large-scale taper (Fig. 3 / Fig. 5)
  // and PSM2 RDMA service boost (Fig. 7).
  double service_eff = 1.0;
  if (engines > 16) service_eff /= 1.0 + m.large_scale_taper_per_engine * static_cast<double>(engines - 16);
  if (config_.provider.name == "psm2") service_eff *= m.psm2_target_service_boost;

  double write_rate = m.target_write_rate * service_eff;
  double read_rate = m.target_read_rate * service_eff;
  double node_io_cap = m.server_node_io_cap * service_eff;
  if (config_.server_nodes > 1) {
    write_rate *= m.multi_node_write_derate;
    node_io_cap *= m.multi_node_read_derate;
  }

  for (std::size_t n = 0; n < config_.server_nodes; ++n) {
    // Per-node aggregate data-movement ceiling (model_config.h:
    // server_node_io_cap).
    net::Link cap;
    cap.name = strf("server%zu.io_cap", n);
    cap.raw_capacity = node_io_cap;
    node_io_caps_.push_back(flows_.add_link(std::move(cap)));

    for (std::size_t s = 0; s < config_.engines_per_server; ++s) {
      // SCM region: AppDirect interleaved set of this socket's DCPMMs.
      const std::size_t region_index = regions_.size();
      regions_.push_back(std::make_unique<scm::ScmRegion>(strf("node%zu.sock%zu.scm", n, s),
                                                          config_.dcpmm, kDcpmmPerSocket));
      net::Link scm_w;
      scm_w.name = regions_.back()->name() + ".write";
      scm_w.raw_capacity = regions_.back()->write_bandwidth();
      region_write_links_.push_back(flows_.add_link(std::move(scm_w)));
      net::Link scm_r;
      scm_r.name = regions_.back()->name() + ".read";
      scm_r.raw_capacity = regions_.back()->read_bandwidth();
      region_read_links_.push_back(flows_.add_link(std::move(scm_r)));

      const std::size_t engine_index = n * config_.engines_per_server + s;
      const auto n_targets = static_cast<double>(config_.targets_per_engine);

      // Engine-level aggregate service (the hard ceiling)...
      net::Link ew;
      ew.name = strf("engine%zu.write", engine_index);
      ew.raw_capacity = write_rate * n_targets;
      engine_write_links_.push_back(flows_.add_link(std::move(ew)));
      net::Link er;
      er.name = strf("engine%zu.read", engine_index);
      er.raw_capacity = read_rate * n_targets;
      engine_read_links_.push_back(flows_.add_link(std::move(er)));

      // ...and per-target shards that may burst above their fair share
      // (model_config.h: target_burst_factor).
      for (std::size_t t = 0; t < config_.targets_per_engine; ++t) {
        Target target;
        target.node = n;
        target.socket = s;
        target.engine = engine_index;
        target.region = region_index;

        net::Link w;
        w.name = strf("engine%zu.tgt%zu.write", engine_index, t);
        w.raw_capacity = write_rate * m.target_burst_factor;
        target.write_link = flows_.add_link(std::move(w));

        net::Link r;
        r.name = strf("engine%zu.tgt%zu.read", engine_index, t);
        r.raw_capacity = read_rate * m.target_burst_factor;
        target.read_link = flows_.add_link(std::move(r));

        targets_.push_back(target);
      }
    }
  }
}

void Cluster::arm_fault_plan() {
  if (!config_.fault_spec.any()) return;
  fault_plan_ = std::make_unique<fault::FaultPlan>(config_.fault_spec);

  std::vector<fault::TargetLinks> target_links;
  target_links.reserve(targets_.size());
  for (const Target& t : targets_) {
    target_links.push_back(fault::TargetLinks{t.write_link, t.read_link});
  }
  // Fabric candidates for link-degradation windows: every NIC side plus each
  // node's UPI (server and client nodes alike).
  std::vector<net::LinkId> fabric;
  const std::size_t nodes = config_.server_nodes + config_.client_nodes;
  for (std::size_t n = 0; n < nodes; ++n) {
    for (std::size_t s = 0; s < net::kSocketsPerNode; ++s) {
      fabric.push_back(topology_->nic_tx(net::Endpoint{n, s}));
      fabric.push_back(topology_->nic_rx(net::Endpoint{n, s}));
    }
    fabric.push_back(topology_->upi(n));
  }
  fault_plan_->set_permanent_failure_handler(
      [this](std::size_t target, sim::TimePoint) { apply_permanent_failure(target); });
  fault_plan_->arm(sched_, flows_, target_links, fabric);
}

std::vector<std::size_t> Cluster::redundant_stripe(std::size_t base, std::size_t width) const {
  const std::size_t n = targets_.size();
  width = std::min(width, n);
  std::vector<std::size_t> stripe;
  stripe.reserve(width);
  std::vector<bool> used_target(n, false);
  std::vector<bool> used_engine(engine_count(), false);
  stripe.push_back(base);
  used_target[base] = true;
  used_engine[targets_[base].engine] = true;
  while (stripe.size() < width) {
    std::size_t pick = n;
    for (std::size_t i = 1; i < n; ++i) {
      const std::size_t t = (base + i) % n;
      if (used_target[t]) continue;
      if (!used_engine[targets_[t].engine]) {
        pick = t;
        break;
      }
      if (pick == n) pick = t;  // fallback once every engine is represented
    }
    stripe.push_back(pick);
    used_target[pick] = true;
    used_engine[targets_[pick].engine] = true;
  }
  return stripe;
}

std::vector<std::size_t> Cluster::stripe_targets(const ObjectId& oid) const {
  const std::size_t n = targets_.size();
  const std::size_t base = static_cast<std::size_t>(mix64(oid.hi ^ (oid.lo * 0x9e3779b97f4a7c15ull))) % n;
  switch (oid.oclass()) {
    case ObjectClass::S1: return {base};
    case ObjectClass::S2: return {base, (base + 1) % n};
    case ObjectClass::SX: {
      std::vector<std::size_t> all(n);
      for (std::size_t i = 0; i < n; ++i) all[i] = (base + i) % n;
      return all;
    }
    case ObjectClass::RP_2:
    case ObjectClass::RP_3:
      return redundant_stripe(base, replica_count(oid.oclass()));
    case ObjectClass::EC_2P1:
    case ObjectClass::EC_4P2:
      return redundant_stripe(base, ec_data_shards(oid.oclass()) + ec_parity_shards(oid.oclass()));
  }
  throw std::logic_error("unknown object class in stripe_targets");
}

std::size_t Cluster::stripe_member_for_key(const ObjectId& oid, const std::string& key) const {
  std::uint64_t h = oid.hi ^ oid.lo;
  for (const char c : key) h = (h ^ static_cast<std::uint8_t>(c)) * 1099511628211ull;
  const std::size_t n = targets_.size();
  std::size_t stripe_size = 1;
  switch (oid.oclass()) {
    case ObjectClass::S1: stripe_size = 1; break;
    case ObjectClass::S2: stripe_size = 2; break;
    case ObjectClass::SX: stripe_size = n; break;
    case ObjectClass::RP_2:
    case ObjectClass::RP_3:
      stripe_size = std::min(replica_count(oid.oclass()), n);
      break;
    case ObjectClass::EC_2P1:
    case ObjectClass::EC_4P2:
      stripe_size = std::min(ec_data_shards(oid.oclass()) + ec_parity_shards(oid.oclass()), n);
      break;
  }
  return static_cast<std::size_t>(mix64(h)) % stripe_size;
}

std::size_t Cluster::shard_for_key(const ObjectId& oid, const std::string& key) const {
  const std::size_t member = stripe_member_for_key(oid, key);
  const std::size_t n = targets_.size();
  const std::size_t base = static_cast<std::size_t>(mix64(oid.hi ^ (oid.lo * 0x9e3779b97f4a7c15ull))) % n;
  switch (oid.oclass()) {
    // Contiguous-ring classes resolve without materialising the stripe (hot
    // path: every KV op routes through here).
    case ObjectClass::S1:
    case ObjectClass::S2:
    case ObjectClass::SX: return (base + member) % n;
    default: return stripe_targets(oid)[member];
  }
}

std::vector<Cluster::ShardRoute> Cluster::resolve_stripe(const ObjectId& oid) const {
  const auto ideal = stripe_targets(oid);
  const std::size_t n = targets_.size();
  std::vector<ShardRoute> routes(ideal.size());
  std::vector<bool> taken(n, false);
  std::vector<bool> used_engine(engine_count(), false);
  for (const std::size_t t : ideal) {
    if (pool_map_->alive(t)) {
      taken[t] = true;
      used_engine[targets_[t].engine] = true;
    }
  }
  for (std::size_t m = 0; m < ideal.size(); ++m) {
    ShardRoute& r = routes[m];
    r.ideal = ideal[m];
    r.target = ideal[m];
    if (pool_map_->alive(ideal[m])) continue;
    const ShardState state = pool_map_->shard_state(oid, ideal[m]);
    if (state == ShardState::lost) {
      r.available = false;
      r.lost = true;
      continue;
    }
    // Replacement home: ring walk from the failed target over alive targets
    // not already in the stripe, preferring engines the stripe does not use.
    std::size_t pick = n;
    for (std::size_t i = 1; i < n; ++i) {
      const std::size_t t = (ideal[m] + i) % n;
      if (!pool_map_->alive(t) || taken[t]) continue;
      if (!used_engine[targets_[t].engine]) {
        pick = t;
        break;
      }
      if (pick == n) pick = t;
    }
    if (pick == n) {
      // Pool exhausted: the shard has nowhere to live.
      r.available = false;
      continue;
    }
    taken[pick] = true;
    used_engine[targets_[pick].engine] = true;
    r.target = pick;
    // Mid-rebuild the data still lives only on the survivors.
    r.available = state == ShardState::healthy;
  }
  return routes;
}

void Cluster::apply_permanent_failure(std::size_t target) {
  if (!pool_map_->alive(target)) return;
  pool_map_->exclude(target);

  // Deterministic enumeration order: containers_ is an unordered map, so
  // sort by uuid before walking (rebuild queue order feeds flow
  // interleaving, which must be bit-identical across runs).
  std::vector<Container*> conts;
  conts.reserve(containers_.size());
  for (const auto& [uuid, cont] : containers_) conts.push_back(cont.get());
  std::sort(conts.begin(), conts.end(),
            [](const Container* a, const Container* b) { return a->id() < b->id(); });

  std::vector<RebuildItem> items;
  const auto enumerate = [&](const ObjectId& oid, Bytes object_bytes) {
    const auto ideal = stripe_targets(oid);
    for (std::size_t m = 0; m < ideal.size(); ++m) {
      if (ideal[m] != target) continue;
      if (object_bytes == 0) continue;  // never written: routing covers it
      const ObjectClass oc = oid.oclass();
      if (!is_redundant(oc)) {
        // Striping-only classes keep a single copy of each shard.
        pool_map_->note_lost(oid, target);
        continue;
      }
      // Shard payload: the full object per replica; ~object/k per EC shard
      // (parity shards are data-shard sized).
      Bytes shard_bytes = object_bytes;
      if (const std::size_t k = ec_data_shards(oc); k > 0) {
        shard_bytes = (object_bytes + k - 1) / k;
      }
      std::size_t source = targets_.size();
      for (std::size_t j = 0; j < ideal.size(); ++j) {
        if (j != m && pool_map_->alive(ideal[j])) {
          source = ideal[j];
          break;
        }
      }
      const auto routes = resolve_stripe(oid);
      if (source == targets_.size() || routes[m].target == target) {
        // No surviving replica/parity source (or no replacement target):
        // the concurrent-failure count exceeded the class's redundancy.
        pool_map_->note_lost(oid, target);
        continue;
      }
      items.push_back(RebuildItem{oid, target, source, routes[m].target, shard_bytes});
    }
  };

  for (Container* cont : conts) {
    for (const ObjectId& oid : cont->list_arrays()) {
      auto opened = cont->open_array(oid);
      if (!opened.is_ok()) continue;
      enumerate(oid, opened.value()->size());
    }
    for (const ObjectId& oid : cont->list_kvs()) {
      const KvObject* kv = cont->find_kv(oid);
      if (kv == nullptr) continue;
      std::uint64_t versions = 0;
      Bytes bytes = 0;
      kv->count_live(versions, bytes);
      enumerate(oid, bytes);
    }
  }
  pool_map_->enqueue_rebuild(std::move(items));
}

std::vector<net::LinkId> Cluster::rebuild_path(std::size_t src_target, std::size_t dst_target) const {
  const Target& s = targets_.at(src_target);
  const Target& d = targets_.at(dst_target);
  std::vector<net::LinkId> path;
  // Read side of the surviving source...
  path.push_back(engine_read_links_[s.engine]);
  path.push_back(s.read_link);
  path.push_back(region_read_links_[s.region]);
  path.push_back(node_io_caps_[s.node]);
  // ...across the fabric (or the UPI for an intra-node cross-socket move)...
  if (s.node != d.node) {
    path.push_back(topology_->nic_tx(net::Endpoint{s.node, s.socket}));
    path.push_back(topology_->nic_rx(net::Endpoint{d.node, d.socket}));
    path.push_back(node_io_caps_[d.node]);
  } else if (s.socket != d.socket) {
    path.push_back(topology_->upi(s.node));
  }
  // ...onto the replacement home's write side.
  path.push_back(engine_write_links_[d.engine]);
  path.push_back(d.write_link);
  path.push_back(region_write_links_[d.region]);
  return path;
}

std::vector<net::LinkId> Cluster::write_path(net::Endpoint client, const Target& target) const {
  std::vector<net::LinkId> path;
  path.push_back(topology_->nic_tx(client));
  path.push_back(topology_->nic_rx(net::Endpoint{target.node, client.socket}));
  if (target.socket != client.socket) path.push_back(topology_->upi(target.node));
  path.push_back(engine_write_links_[target.engine]);
  path.push_back(target.write_link);
  path.push_back(region_write_links_[target.region]);
  path.push_back(node_io_caps_[target.node]);
  return path;
}

std::vector<net::LinkId> Cluster::read_path(net::Endpoint client, const Target& target) const {
  std::vector<net::LinkId> path;
  path.push_back(topology_->nic_tx(net::Endpoint{target.node, client.socket}));
  path.push_back(topology_->nic_rx(client));
  if (target.socket != client.socket) path.push_back(topology_->upi(target.node));
  path.push_back(engine_read_links_[target.engine]);
  path.push_back(target.read_link);
  path.push_back(region_read_links_[target.region]);
  path.push_back(node_io_caps_[target.node]);
  return path;
}

std::vector<net::LinkId> Cluster::service_path(std::size_t target_index, bool is_write) const {
  // Metadata service is handled by the owning engine's helper xstreams: it
  // consumes engine-level capacity (competing with data movement) but is
  // not pinned to the shard target's data-service share.
  const Target& t = targets_.at(target_index);
  if (is_write) return {engine_write_links_[t.engine]};
  return {engine_read_links_[t.engine]};
}

std::vector<net::LinkId> Cluster::container_service_path(std::size_t target_index, bool is_write) const {
  auto path = service_path(target_index, is_write);
  path.push_back(node_io_caps_[targets_.at(target_index).node]);
  return path;
}

Bytes Cluster::pool_capacity() const {
  Bytes total = 0;
  for (const auto& r : regions_) total += r->capacity();
  return total;
}

Bytes Cluster::pool_used() const {
  Bytes total = 0;
  for (const auto& r : regions_) total += r->used();
  return total;
}

Status Cluster::create_container(const Uuid& uuid) {
  const FaultInjection& f = config_.faults;
  if (f.container_create_issue && config_.server_nodes > kContainerIssueMinServers &&
      containers_created_ >= f.container_issue_threshold) {
    return Status::error(Errc::unavailable,
                         strf("emulated DAOS issue: container creation failing beyond %zu server nodes "
                              "(paper Section 7)",
                              kContainerIssueMinServers));
  }
  if (containers_.count(uuid) != 0) {
    return Status::error(Errc::already_exists, "container exists: " + uuid.to_string());
  }
  containers_.emplace(uuid, std::make_unique<Container>(sched_, uuid, /*is_main=*/false,
                                                        config_.model.kv_get_concurrency,
                                                        config_.model.epoch_retention_depth));
  ++containers_created_;
  return Status::ok();
}

EpochStats Cluster::epoch_stats() const {
  EpochStats total;
  for (const auto& [uuid, cont] : containers_) total += cont->epoch_stats();
  return total;
}

std::pair<std::uint64_t, Bytes> Cluster::live_versions() const {
  std::uint64_t versions = 0;
  Bytes bytes = 0;
  for (const auto& [uuid, cont] : containers_) cont->count_live(versions, bytes);
  return {versions, bytes};
}

Result<Container*> Cluster::open_container(const Uuid& uuid) {
  const auto it = containers_.find(uuid);
  if (it == containers_.end()) {
    return Status::error(Errc::not_found, "container not found: " + uuid.to_string());
  }
  return it->second.get();
}

Result<std::pair<std::size_t, std::uint64_t>> Cluster::charge_capacity(std::size_t target_index,
                                                                       Bytes bytes) {
  const Target& t = targets_.at(target_index);
  auto alloc = regions_[t.region]->allocate(bytes);
  if (!alloc.is_ok()) return alloc.status();
  // The field functions never free these (re-writes de-reference without
  // deleting, Section 4); only Client::array_destroy reclaims them.
  return std::make_pair(t.region, alloc.value());
}

void Cluster::release_capacity(std::size_t region_index, std::uint64_t allocation_id) {
  regions_.at(region_index)->free(allocation_id);
}

}  // namespace nws::daos
