#include "harness/experiment.h"

#include "obs/trace.h"

namespace nws::bench {

namespace {

/// Serial fold of per-repetition outcomes, in repetition order (the exact
/// accumulation order of the historical serial loop).  Seals the summaries
/// and folded metrics so later const readers share them race-free.
RepetitionSummary summarise(const std::vector<RunOutcome>& outcomes) {
  RepetitionSummary summary;
  for (const RunOutcome& outcome : outcomes) {
    if (outcome.failed) {
      summary.any_failed = true;
      summary.failure = outcome.failure;
      continue;
    }
    summary.write.add(outcome.write_bw);
    summary.read.add(outcome.read_bw);
    summary.metrics.fold(outcome.metrics);
  }
  summary.write.seal();
  summary.read.seal();
  summary.metrics.seal();
  return summary;
}

std::uint64_t repetition_seed(std::uint64_t base_seed, std::size_t r) {
  return base_seed + 1000003ull * (r + 1);
}

}  // namespace

RepetitionSummary repeat(std::size_t reps, std::uint64_t base_seed,
                         const std::function<RunOutcome(std::uint64_t seed)>& run,
                         std::size_t jobs) {
  return summarise(parallel_map(
      reps, jobs, [&](std::size_t r) { return run(repetition_seed(base_seed, r)); }));
}

obs::MetricsSnapshot snapshot_run_metrics(const sim::Scheduler& sched, const net::FlowStats& flows,
                                          const IoLog& write_log, const IoLog& read_log,
                                          const daos::ClientStats& client,
                                          const fdb::FieldIoStats* field,
                                          const daos::Cluster* cluster) {
  obs::MetricsSnapshot m;
  m.counter("sim.events_executed", static_cast<double>(sched.events_executed()));
  m.counter("net.flows_started", static_cast<double>(flows.flows_started));
  m.counter("net.flows_completed", static_cast<double>(flows.flows_completed));
  m.counter("net.bytes_delivered", flows.bytes_delivered);
  m.gauge("net.peak_concurrent_flows", static_cast<double>(flows.peak_concurrent));
  m.counter("net.rate_recomputations", static_cast<double>(flows.rate_recomputations));
  m.counter("daos.kv_puts", static_cast<double>(client.kv_puts));
  m.counter("daos.kv_gets", static_cast<double>(client.kv_gets));
  m.counter("daos.array_writes", static_cast<double>(client.array_writes));
  m.counter("daos.array_reads", static_cast<double>(client.array_reads));
  m.counter("daos.bytes_written", static_cast<double>(client.bytes_written));
  m.counter("daos.bytes_read", static_cast<double>(client.bytes_read));
  m.counter("daos.rpc_timeouts", static_cast<double>(client.rpc_timeouts));
  m.counter("daos.transient_errors", static_cast<double>(client.transient_errors));
  m.counter("daos.op_retries", static_cast<double>(client.op_retries));
  const auto log_metrics = [&m](const char* side, const IoLog& log) {
    const std::string prefix = std::string("io.") + side;
    m.counter(prefix + ".operations", static_cast<double>(log.operations()));
    m.counter(prefix + ".bytes", static_cast<double>(log.total_bytes()));
    m.counter(prefix + ".retries", static_cast<double>(log.total_retries()));
    if (!log.empty()) m.histogram(prefix + ".latency_seconds", log.op_latencies());
  };
  log_metrics("write", write_log);
  log_metrics("read", read_log);
  if (field != nullptr) {
    m.counter("fdb.fields_written", static_cast<double>(field->fields_written));
    m.counter("fdb.fields_read", static_cast<double>(field->fields_read));
    m.counter("fdb.bytes_written", static_cast<double>(field->bytes_written));
    m.counter("fdb.bytes_read", static_cast<double>(field->bytes_read));
    m.counter("fdb.retries", static_cast<double>(field->retries));
    if (field->commits > 0) m.counter("fdb.commits", static_cast<double>(field->commits));
    if (field->snapshot_pins > 0) {
      m.counter("fdb.snapshot_pins", static_cast<double>(field->snapshot_pins));
    }
  }
  if (cluster != nullptr) {
    const daos::EpochStats epochs = cluster->epoch_stats();
    const bool used_epochs = epochs.commits > 0 || epochs.snapshots_opened > 0 ||
                             epochs.cow_bytes > 0 || epochs.versions_pruned > 0;
    if (used_epochs) {
      m.counter("epoch.commits", static_cast<double>(epochs.commits));
      m.counter("epoch.snapshots_opened", static_cast<double>(epochs.snapshots_opened));
      m.counter("epoch.snapshots_released", static_cast<double>(epochs.snapshots_released));
      m.counter("epoch.cow_bytes", static_cast<double>(epochs.cow_bytes));
      m.counter("epoch.versions_pruned", static_cast<double>(epochs.versions_pruned));
      m.counter("epoch.bytes_reclaimed", static_cast<double>(epochs.bytes_reclaimed));
      const auto [live_versions, live_bytes] = cluster->live_versions();
      m.gauge("epoch.live_versions", static_cast<double>(live_versions));
      m.gauge("epoch.live_version_bytes", static_cast<double>(live_bytes));
      m.gauge("epoch.retention_depth",
              static_cast<double>(cluster->config().model.epoch_retention_depth));
    }
    const daos::RebuildStats& rebuild = cluster->pool_map().stats();
    // Emitted only when a permanent failure actually excluded a target, so
    // artifacts of fault-free runs stay byte-identical.
    if (rebuild.targets_excluded > 0) {
      m.counter("rebuild.targets_excluded", static_cast<double>(rebuild.targets_excluded));
      m.counter("rebuild.objects_degraded", static_cast<double>(rebuild.objects_degraded));
      m.counter("rebuild.objects_rebuilt", static_cast<double>(rebuild.objects_rebuilt));
      m.counter("rebuild.objects_lost", static_cast<double>(rebuild.objects_lost));
      m.counter("rebuild.degraded_reads", static_cast<double>(rebuild.degraded_reads));
      m.counter("rebuild.bytes_rebuilt", static_cast<double>(rebuild.bytes_rebuilt));
      if (rebuild.last_rebuilt_at >= 0) {
        m.gauge("rebuild.window_seconds",
                sim::to_seconds(rebuild.last_rebuilt_at - rebuild.first_excluded_at));
      }
    }
  }
  return m;
}

RunOutcome run_ior_once(daos::ClusterConfig cfg, const ior::IorParams& params, std::uint64_t seed) {
  cfg.seed = seed;
  sim::Scheduler sched;
  const obs::ScopedClock trace_clock(sched);  // spans (if tracing) read this run's clock
  daos::Cluster cluster(sched, cfg);
  const ior::IorResult result = ior::run_ior(cluster, params);
  RunOutcome outcome;
  outcome.failed = result.failed;
  outcome.failure = result.failure;
  if (!result.failed) {
    outcome.write_bw = to_gib_per_sec(result.write_log.synchronous_bandwidth());
    outcome.read_bw = to_gib_per_sec(result.read_log.synchronous_bandwidth());
    outcome.metrics = snapshot_run_metrics(sched, cluster.flows().stats(), result.write_log,
                                           result.read_log, result.client_stats);
  }
  return outcome;
}

RunOutcome run_field_once(daos::ClusterConfig cfg, const FieldBenchParams& params, char pattern,
                          std::uint64_t seed) {
  cfg.seed = seed;
  sim::Scheduler sched;
  const obs::ScopedClock trace_clock(sched);
  daos::Cluster cluster(sched, cfg);
  return field_outcome(cluster, run_field_pattern(cluster, params, pattern));
}

RunOutcome field_outcome(daos::Cluster& cluster, const FieldBenchResult& result) {
  RunOutcome outcome;
  outcome.failed = result.failed;
  outcome.failure = result.failure;
  if (result.failed) return outcome;
  outcome.write_bw =
      result.write_log.empty() ? 0.0 : to_gib_per_sec(result.write_log.global_timing_bandwidth());
  outcome.read_bw =
      result.read_log.empty() ? 0.0 : to_gib_per_sec(result.read_log.global_timing_bandwidth());
  outcome.metrics = snapshot_run_metrics(cluster.scheduler(), cluster.flows().stats(),
                                         result.write_log, result.read_log, result.client_stats,
                                         &result.field_stats, &cluster);
  if (result.snapshot_reads > 0 || result.snapshot_pin_retries > 0 ||
      result.snapshot_fallbacks > 0) {
    outcome.metrics.counter("fdb.snapshot_verified_reads",
                            static_cast<double>(result.snapshot_reads));
    outcome.metrics.counter("fdb.snapshot_pin_retries",
                            static_cast<double>(result.snapshot_pin_retries));
    outcome.metrics.counter("fdb.snapshot_fallbacks",
                            static_cast<double>(result.snapshot_fallbacks));
  }
  return outcome;
}

BestOfPpn best_over_ppn(const std::vector<std::size_t>& ppn_candidates, std::size_t reps,
                        std::uint64_t base_seed,
                        const std::function<RunOutcome(std::size_t ppn, std::uint64_t seed)>& run,
                        std::size_t jobs) {
  // Flatten the (ppn, repetition) grid into one sweep so a wide pool stays
  // busy even when reps < jobs; job index = candidate * reps + repetition.
  const std::vector<RunOutcome> outcomes =
      parallel_map(ppn_candidates.size() * reps, jobs, [&](std::size_t job) {
        const std::size_t ppn = ppn_candidates[job / reps];
        return run(ppn, repetition_seed(base_seed ^ (0x51ed2700ull * ppn), job % reps));
      });

  BestOfPpn best;
  double best_score = -1.0;
  for (std::size_t c = 0; c < ppn_candidates.size(); ++c) {
    const RepetitionSummary summary = summarise(
        {outcomes.begin() + static_cast<std::ptrdiff_t>(c * reps),
         outcomes.begin() + static_cast<std::ptrdiff_t>((c + 1) * reps)});
    if (summary.any_failed && summary.write.empty() && summary.read.empty()) continue;
    const double score = summary.mean_aggregate();
    if (score > best_score) {
      best_score = score;
      best.ppn = ppn_candidates[c];
      best.summary = summary;
    }
  }
  return best;
}

daos::ClusterConfig testbed_config(std::size_t server_nodes, std::size_t client_nodes,
                                   const std::string& provider_name) {
  daos::ClusterConfig cfg;
  cfg.server_nodes = server_nodes;
  cfg.client_nodes = client_nodes;
  cfg.provider = net::provider_by_name(provider_name);
  if (provider_name == "psm2") {
    // Paper 6.4: PSM2 runs used a single engine per server node and one
    // socket per client node.
    cfg.engines_per_server = 1;
    cfg.client_sockets_in_use = 1;
  }
  cfg.payload_mode = daos::PayloadMode::digest;
  return cfg;
}

}  // namespace nws::bench
