#include "harness/partitioned_bench.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "obs/trace.h"

namespace nws::bench {

namespace {

/// Per-shard coordination counters.  Each shard's state is only written by
/// callbacks executing on that shard's partition (single-writer), read at
/// collection time after the run.
struct GossipState {
  std::uint64_t tokens_received = 0;
};

/// Cross-shard coordination cadence, in simulated time.
constexpr sim::Duration kGossipInterval = sim::milliseconds(50);
constexpr std::uint32_t kGossipRounds = 8;

/// Broadcasts kGossipRounds progress tokens to every peer shard, one batch
/// per kGossipInterval.  Tokens ride the campaign fabric and arrive
/// `latency` (the lookahead) after sending — at or past the window horizon
/// by construction, so the conservative protocol never sees them early.
/// The only cross-shard sender, it promises its shard's next send time
/// before each wait and "never" after the last round, so windows run from
/// one gossip tick to the next and the tail of the campaign runs in one
/// window.
sim::Task<void> gossip_proc(sim::PartitionedScheduler& psched, std::size_t self,
                            sim::Duration latency, std::vector<GossipState>& states) {
  sim::Scheduler& sched = psched.partition(self);
  for (std::uint32_t round = 0; round < kGossipRounds; ++round) {
    psched.promise(self, sched.now() + kGossipInterval);
    co_await sched.delay(kGossipInterval);
    for (std::size_t peer = 0; peer < states.size(); ++peer) {
      if (peer == self) continue;
      GossipState* target = &states[peer];
      psched.post(self, peer, sched.now() + latency, [target] { ++target->tokens_received; });
    }
  }
  psched.promise(self, sim::Scheduler::kNoEventTime);
}

std::uint64_t shard_seed(std::uint64_t seed, std::size_t shard) {
  return mix64(seed + 0x9e3779b97f4a7c15ull * (shard + 1));
}

}  // namespace

PartitionedOutcome run_field_partitioned(const daos::ClusterConfig& shard_cfg,
                                         const PartitionedRunParams& params, std::uint64_t seed) {
  if (params.shards == 0) throw std::invalid_argument("partitioned run needs >= 1 shard");

  // Shards own disjoint nodes, so every cross-shard message pays one fabric
  // hop between two nodes: the provider's message latency, which is also
  // the smallest such latency and so the window lookahead.
  const sim::Duration latency = shard_cfg.provider.message_latency;

  // Per-partition trace recorders, only when the caller is tracing: each is
  // clock-bound to its partition and installed thread-locally around that
  // partition's execution slices, then merged back deterministically.
  obs::TraceRecorder* parent_trace = obs::current_trace();
  std::vector<std::unique_ptr<obs::TraceRecorder>> shard_traces;
  std::vector<std::unique_ptr<obs::TraceSession>> slice_sessions(params.shards);

  sim::PartitionConfig pcfg;
  pcfg.partitions = params.shards;
  pcfg.lookahead = latency;
  pcfg.workers = params.jobs;
  if (parent_trace != nullptr) {
    shard_traces.reserve(params.shards);
    for (std::size_t p = 0; p < params.shards; ++p) {
      auto rec = std::make_unique<obs::TraceRecorder>();
      rec->seed_epoch(parent_trace->high_water());
      shard_traces.push_back(std::move(rec));
    }
    pcfg.slice_scope = [&shard_traces, &slice_sessions](std::size_t p, bool enter) {
      if (enter) {
        slice_sessions[p] = std::make_unique<obs::TraceSession>(*shard_traces[p]);
      } else {
        slice_sessions[p].reset();
      }
    };
  }

  sim::PartitionedScheduler psched(std::move(pcfg));

  std::vector<std::unique_ptr<obs::ScopedClock>> shard_clocks;
  std::vector<std::unique_ptr<daos::Cluster>> clusters;
  std::vector<std::unique_ptr<FieldPatternRun>> runs;
  std::vector<GossipState> gossip(params.shards);
  clusters.reserve(params.shards);
  runs.reserve(params.shards);
  for (std::size_t p = 0; p < params.shards; ++p) {
    daos::ClusterConfig cfg = shard_cfg;
    cfg.seed = shard_seed(seed, p);
    if (parent_trace != nullptr) {
      shard_clocks.push_back(
          std::make_unique<obs::ScopedClock>(*shard_traces[p], psched.partition(p)));
    }
    clusters.push_back(std::make_unique<daos::Cluster>(psched.partition(p), cfg));
    runs.push_back(std::make_unique<FieldPatternRun>(*clusters[p], params.field, params.pattern));
    runs[p]->spawn();
    if (params.shards > 1) psched.partition(p).spawn(gossip_proc(psched, p, latency, gossip));
  }

  psched.run();

  PartitionedOutcome out;
  out.stats = psched.stats();
  out.lookahead = latency;

  // Shard-ordered fold: bandwidths sum (campaign aggregate), metrics fold
  // with the same counter-add/gauge-max rules repeat() uses.
  std::uint64_t gossip_tokens = 0;
  for (std::size_t p = 0; p < params.shards; ++p) {
    const RunOutcome shard = field_outcome(*clusters[p], runs[p]->collect());
    out.sim_seconds = std::max(out.sim_seconds, sim::to_seconds(psched.partition(p).now()));
    gossip_tokens += gossip[p].tokens_received;
    if (shard.failed) {
      if (!out.outcome.failed) {
        out.outcome.failed = true;
        out.outcome.failure = shard.failure;
      }
      continue;
    }
    out.outcome.write_bw += shard.write_bw;
    out.outcome.read_bw += shard.read_bw;
    out.outcome.metrics.fold(shard.metrics);
  }

  // Protocol counters (deterministic: window structure depends only on
  // event timestamps, never on worker interleaving).  The wall-clock
  // barrier-wait figure stays OUT of the metrics — it would break the
  // bit-identical-reports-across-jobs gate; callers read it from `stats`.
  out.outcome.metrics.gauge("sim.partition.groups", static_cast<double>(out.stats.partitions));
  out.outcome.metrics.gauge("sim.partition.lookahead_seconds", sim::to_seconds(out.lookahead));
  out.outcome.metrics.counter("sim.partition.windows", static_cast<double>(out.stats.windows));
  out.outcome.metrics.counter("sim.partition.null_windows",
                              static_cast<double>(out.stats.null_windows));
  out.outcome.metrics.counter("sim.partition.cross_events",
                              static_cast<double>(out.stats.cross_events));
  out.outcome.metrics.counter("sim.partition.gossip_tokens", static_cast<double>(gossip_tokens));

  // Tear down the shards (coroutine frames, Span handles) before merging the
  // per-partition trace timelines back into the caller's recorder.
  runs.clear();
  clusters.clear();
  shard_clocks.clear();
  if (parent_trace != nullptr) {
    for (std::size_t p = 0; p < params.shards; ++p) parent_trace->absorb(*shard_traces[p]);
  }
  return out;
}

}  // namespace nws::bench
