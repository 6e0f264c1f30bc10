// Partitioned (time-parallel) field-benchmark campaigns.
//
// The follow-up paper's operational-scale runs are campaigns of many model
// shards: each shard is a self-contained DAOS deployment (its own servers,
// clients and FDB pool — the sharded-pool layout of "Reducing the Impact of
// I/O Contention in NWP Workflows at Scale Using DAOS") running the field
// workload, with shards coupled only through light cross-shard coordination
// traffic on the campaign fabric.  That structure maps exactly onto
// conservative PDES: one sim::PartitionedScheduler partition per shard, the
// coordination messages as the cross-partition events, and the provider's
// message latency as the lookahead.  Shards own disjoint nodes, so every
// coordination message crosses the fabric between two nodes, and the
// fabric model (net::Topology::latency) charges no such pair less than
// that latency.
//
// Determinism contract (the --jobs gate): the partition count is part of
// the scenario, `jobs` only maps partitions onto worker threads, and every
// fold below walks shards in index order — so the returned outcome is
// bit-identical for any jobs value, including 1.
#pragma once

#include <cstdint>

#include "harness/experiment.h"
#include "sim/partition.h"

namespace nws::bench {

struct PartitionedRunParams {
  FieldBenchParams field;
  char pattern = 'A';
  /// Model shards == scheduler partitions.  Scenario-defining: changing it
  /// changes the simulated system (unlike jobs).
  std::size_t shards = 4;
  /// Worker threads for the window protocol (what --jobs resolves to).
  std::size_t jobs = 1;
};

struct PartitionedOutcome {
  /// Shard-folded outcome (bandwidths summed, metrics folded in shard
  /// order, sim.partition.* protocol counters appended).
  RunOutcome outcome;
  sim::PartitionRunStats stats;
  sim::Duration lookahead = 0;
  double sim_seconds = 0.0;  // max shard clock
};

/// Runs `shards` independent field-workload shards (each a fresh Cluster
/// built from `shard_cfg` with a shard-specific seed) concurrently under
/// the conservative window protocol.  The lookahead, and the latency of
/// every coordination message, is shard_cfg.provider.message_latency; with
/// more than one shard a provider without message latency throws
/// std::invalid_argument (no window would be safe).
PartitionedOutcome run_field_partitioned(const daos::ClusterConfig& shard_cfg,
                                         const PartitionedRunParams& params, std::uint64_t seed);

}  // namespace nws::bench
