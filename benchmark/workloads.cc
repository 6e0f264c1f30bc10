#include "workloads.h"

#include <time.h>

#include <chrono>
#include <cstring>
#include <exception>
#include <memory>
#include <string_view>

#include "common/md5.h"
#include "common/rng.h"
#include "common/units.h"
#include "dfs/file_fdb.h"
#include "fault/fault_plan.h"
#include "harness/experiment.h"
#include "harness/field_bench.h"
#include "harness/partitioned_bench.h"
#include "obs/trace.h"
#include "pgen/serving.h"
#include "sim/sync.h"

namespace nwsbench {

namespace {

using namespace nws;

/// Host seconds between successive lap() calls.
class Stopwatch {
 public:
  double lap() {
    const auto now = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(now - last_).count();
    last_ = now;
    return s;
  }

 private:
  std::chrono::steady_clock::time_point last_ = std::chrono::steady_clock::now();
};

/// Runs the simulation, recording an exception (deadlock, failed init) as
/// the repetition's failure.  Returns false when the run did not finish.
template <typename Fn>
bool run_guarded(Rep& rep, Fn&& fn) {
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    rep.failure = e.what();
    return false;
  }
}

/// Counters snapshot_run_metrics leaves out: what the fault plan injected and
/// the payload bytes copied when the cluster keeps full payloads.
void add_cluster_counters(obs::MetricsSnapshot& m, daos::Cluster& cluster,
                          const daos::ClientStats& client) {
  if (const fault::FaultPlan* plan = cluster.fault_plan(); plan != nullptr) {
    const fault::FaultStats& f = plan->stats();
    m.counter("fault.rpc_drops", static_cast<double>(f.rpc_drops));
    m.counter("fault.transient_errors", static_cast<double>(f.transient_errors));
    m.counter("fault.outage_rejections", static_cast<double>(f.outage_rejections));
  }
  if (cluster.config().payload_mode == daos::PayloadMode::full) {
    m.counter("daos.payload_bytes", static_cast<double>(client.bytes_written + client.bytes_read));
  }
}

void take_logs(Rep& rep, const bench::IoLog& writes, const bench::IoLog& reads) {
  rep.write_gib_s = writes.empty() ? 0.0 : to_gib_per_sec(writes.global_timing_bandwidth());
  rep.read_gib_s = reads.empty() ? 0.0 : to_gib_per_sec(reads.global_timing_bandwidth());
  rep.write_latency_s = writes.op_latencies();
  rep.read_latency_s = reads.op_latencies();
  rep.completed = writes.operations() + reads.operations();
}

// --- field_contention / chaos_rebuild: pattern A through FieldPatternRun ----

Rep run_field(daos::ClusterConfig cfg, const bench::FieldBenchParams& params, std::uint64_t seed) {
  Rep rep;
  rep.attempted = 2ull * cfg.client_nodes * params.processes_per_node * params.ops_per_process;
  cfg.seed = seed;
  sim::Scheduler sched;
  const obs::ScopedClock trace_clock(sched);
  daos::Cluster cluster(sched, cfg);
  bench::FieldPatternRun run(cluster, params, 'A');
  run.spawn();
  Stopwatch clock;
  if (!run_guarded(rep, [&] { sched.run(); })) return rep;
  rep.run_s = clock.lap();
  const bench::FieldBenchResult result = run.collect();
  rep.layer = bench::snapshot_run_metrics(sched, cluster.flows().stats(), result.write_log,
                                          result.read_log, result.client_stats,
                                          &result.field_stats, &cluster);
  add_cluster_counters(rep.layer, cluster, result.client_stats);
  rep.fold_s = clock.lap();
  take_logs(rep, result.write_log, result.read_log);
  // With verify_payload the harness compares each completed read's bytes
  // and fails the run on a mismatch; the bytes exist only in full mode.
  const std::uint64_t reads = result.read_log.operations();
  rep.verified = params.verify_payload && cluster.config().payload_mode == daos::PayloadMode::full &&
                 reads > 0 && 2 * reads == rep.attempted;
  if (result.failed) rep.failure = result.failure;
  return rep;
}

std::vector<daos::ClusterConfig> field_contention_clusters(std::uint64_t, Scale scale) {
  const bool tiny = scale == Scale::tiny;
  return {bench::testbed_config(tiny ? 2 : 4, tiny ? 2 : 8)};
}

Rep field_contention(std::uint64_t seed, Scale scale, std::size_t) {
  const bool tiny = scale == Scale::tiny;
  bench::FieldBenchParams params;
  params.mode = fdb::Mode::full;
  params.shared_forecast_index = true;
  params.processes_per_node = tiny ? 4 : 16;
  params.ops_per_process = tiny ? 5 : 50;
  return run_field(field_contention_clusters(seed, scale)[0], params, seed);
}

std::vector<daos::ClusterConfig> chaos_rebuild_clusters(std::uint64_t seed, Scale scale) {
  daos::ClusterConfig cfg = bench::testbed_config(2, 2);
  cfg.payload_mode = daos::PayloadMode::full;
  cfg.fault_spec = fault::FaultSpec::default_chaos(mix64(seed ^ 0xfa017ull));
  cfg.fault_spec.permanent_failures = 1;
  cfg.fault_spec.permanent_failure_time = sim::milliseconds(scale == Scale::tiny ? 10 : 100);
  return {cfg};
}

Rep chaos_rebuild(std::uint64_t seed, Scale scale, std::size_t) {
  const bool tiny = scale == Scale::tiny;
  bench::FieldBenchParams params;
  // The default SX index class would lose the forecast index with the
  // failed target; RP_2 on both objects keeps every field recoverable.
  params.kv_class = daos::ObjectClass::RP_2;
  params.array_class = daos::ObjectClass::RP_2;
  params.processes_per_node = tiny ? 2 : 8;
  params.ops_per_process = tiny ? 4 : 20;
  params.verify_payload = true;
  return run_field(chaos_rebuild_clusters(seed, scale)[0], params, seed);
}

// --- partitioned_campaign: four field shards under the window protocol ------

const nws::Summary* histogram(const obs::MetricsSnapshot& m, const std::string& name) {
  const auto it = m.metrics().find(name);
  return it == m.metrics().end() ? nullptr : &it->second.samples;
}

constexpr std::size_t kShards = 4;

std::vector<daos::ClusterConfig> partitioned_campaign_clusters(std::uint64_t seed, Scale) {
  std::vector<daos::ClusterConfig> shards(kShards, bench::testbed_config(1, 2));
  for (std::size_t p = 0; p < kShards; ++p) shards[p].seed = seed + p;
  return shards;
}

Rep partitioned_campaign(std::uint64_t seed, Scale scale, std::size_t workers) {
  const bool tiny = scale == Scale::tiny;
  const daos::ClusterConfig shard_cfg = partitioned_campaign_clusters(seed, scale)[0];
  bench::PartitionedRunParams params;
  params.field.mode = fdb::Mode::full;
  params.field.shared_forecast_index = true;
  params.field.processes_per_node = tiny ? 4 : 16;
  params.field.ops_per_process = tiny ? 5 : 200;
  params.pattern = 'A';
  params.shards = kShards;
  params.jobs = workers;

  Rep rep;
  rep.attempted = 2ull * params.shards * shard_cfg.client_nodes * params.field.processes_per_node *
                  params.field.ops_per_process;
  Stopwatch clock;
  bench::PartitionedOutcome out;
  if (!run_guarded(rep, [&] { out = bench::run_field_partitioned(shard_cfg, params, seed); })) {
    return rep;
  }
  rep.run_s = clock.lap();
  rep.layer = out.outcome.metrics;
  rep.workers = out.stats.workers_used;
  rep.barrier_wait_s = out.stats.barrier_wait_seconds;
  rep.write_gib_s = out.outcome.write_bw;
  rep.read_gib_s = out.outcome.read_bw;
  if (const nws::Summary* w = histogram(rep.layer, "io.write.latency_seconds")) {
    rep.write_latency_s = *w;
  }
  if (const nws::Summary* r = histogram(rep.layer, "io.read.latency_seconds")) {
    rep.read_latency_s = *r;
  }
  for (const char* ops : {"io.write.operations", "io.read.operations"}) {
    if (rep.layer.has(ops)) rep.completed += static_cast<std::uint64_t>(rep.layer.value(ops));
  }
  rep.fold_s = clock.lap();
  if (out.outcome.failed) rep.failure = out.outcome.failure;
  return rep;
}

// --- serving_snapshot: ioserver pipeline beside a pgen consumer fleet -------

std::vector<daos::ClusterConfig> serving_snapshot_clusters(std::uint64_t, Scale) {
  return {bench::testbed_config(2, 4)};
}

Rep serving_snapshot(std::uint64_t seed, Scale scale, std::size_t) {
  const bool tiny = scale == Scale::tiny;
  daos::ClusterConfig cfg = serving_snapshot_clusters(seed, scale)[0];
  cfg.seed = seed;
  ioserver::PipelineConfig write;
  write.model_processes = 64;
  write.io_servers = 8;
  write.steps = tiny ? 2 : 32;
  write.fields_per_step = tiny ? 8 : 128;
  pgen::ServingConfig serve;
  serve.consumers = tiny ? 4 : 64;
  serve.snapshot_reads = true;  // pins published steps; retention depth 2
  serve.cache.capacity_fields = 32;
  serve.cache.capacity_bytes = 32 * write.field_size;
  serve.admission.max_in_flight = 4;

  Rep rep;
  const std::uint64_t fields = std::uint64_t{write.steps} * write.fields_per_step;
  rep.attempted = fields * (1 + serve.consumers);  // one store + one read per consumer
  sim::Scheduler sched;
  const obs::ScopedClock trace_clock(sched);
  daos::Cluster cluster(sched, cfg);
  Stopwatch clock;
  pgen::ContentionResult result;
  if (!run_guarded(rep, [&] { result = pgen::run_write_read_contention(cluster, write, serve); })) {
    return rep;
  }
  rep.run_s = clock.lap();
  daos::ClientStats clients = result.pipeline.client_stats;
  clients += result.serving.client_stats;
  fdb::FieldIoStats field_stats = result.pipeline.field_stats;
  field_stats += result.serving.field_stats;
  rep.layer = bench::snapshot_run_metrics(sched, cluster.flows().stats(), result.pipeline.store_log,
                                          result.serving.read_log, clients, &field_stats, &cluster);
  rep.layer.fold(pgen::serving_metrics(result.serving));
  rep.layer.counter("ioserver.fields_stored", static_cast<double>(result.pipeline.fields_stored));
  rep.layer.counter("ioserver.steps_committed",
                    static_cast<double>(result.pipeline.steps_committed));
  add_cluster_counters(rep.layer, cluster, clients);
  rep.fold_s = clock.lap();
  take_logs(rep, result.pipeline.store_log, result.serving.read_log);
  rep.completed = result.pipeline.fields_stored + result.serving.fields_served;
  if (result.pipeline.failed) {
    rep.failure = result.pipeline.failure;
  } else if (result.serving.failed) {
    rep.failure = result.serving.failure;
  }
  return rep;
}

// --- posix_meta: the fig_interfaces metadata campaign through PosixFs -------

constexpr std::string_view kContainer = "nwsbench";
// Partial overwrite, unaligned on purpose: the POSIX adapter pays
// read-modify-write for it.
constexpr Bytes kPatchOffset = 100;
constexpr Bytes kPatchLen = 1000;

struct FsCampaign {
  std::size_t client_nodes = 2;
  std::size_t ppn = 8;
  std::uint32_t ops = 64;
  Bytes field_size = 16000;
};

struct FsShared {
  dfs::DfsStats dfs_stats;
  dfs::PosixStats posix_stats;
  daos::ClientStats client_stats;
  std::uint64_t verified_reads = 0;  // reads whose MD5 matched the expected bytes
  bool failed = false;
  std::string failure;
  void fail(const std::string& why) {
    if (!failed) {
      failed = true;
      failure = why;
    }
  }
};

std::string field_name(std::uint32_t op) {
  std::string name = "f";  // not "f" + ...: a GCC 12 -Wrestrict false positive (bug 105651)
  return name += std::to_string(op);
}

std::string field_canonical(std::uint32_t rank, std::uint32_t op) {
  return "fc" + std::to_string(rank) + "/" + field_name(op);
}

bool md5_matches(const std::uint8_t* got, Bytes n, const std::string& canonical) {
  auto expected = bench::make_field_payload(canonical, n);
  const auto patch = bench::make_field_payload(canonical + "#patch", kPatchLen);
  std::memcpy(expected.data() + kPatchOffset, patch.data(), patch.size());
  const auto view = [](const std::uint8_t* p, Bytes len) {
    return std::string_view(reinterpret_cast<const char*>(p), static_cast<std::size_t>(len));
  };
  return md5(view(got, n)).hex() == md5(view(expected.data(), n)).hex();
}

/// Formats the namespace with one mount before any worker mounts: concurrent
/// first mounts of a fresh container race in Dfs::mount (README.md, known
/// issues), so the workers wait on `formatted`.
sim::Task<void> format_namespace(daos::Cluster& cluster, FsShared& shared, sim::Gate& formatted) {
  daos::Client client(cluster, cluster.client_endpoint(0, 0), 0x5f000u);
  dfs::Dfs fs(client, {}, 0);
  const Status mounted = co_await fs.mount(std::string(kContainer));
  if (!mounted.is_ok()) shared.fail("dfs format failed: " + mounted.to_string());
  formatted.open();
}

/// One process: publish (tmp write + rename), patch, list every 4th op and
/// commit each of its fields; then read each back MD5-verified and unlink it.
sim::Task<void> posix_process(daos::Cluster& cluster, const FsCampaign camp, sim::Mutex& meta_lock,
                              sim::Gate& formatted, FsShared& shared, bench::IoLog& wlog,
                              bench::IoLog& rlog, sim::Barrier& phase, std::uint32_t node,
                              std::uint32_t proc, std::uint32_t rank) {
  daos::Client client(cluster, cluster.client_endpoint(node, proc), 0x60000u + rank);
  const obs::Actor actor{node, rank};
  client.set_trace_actor(actor);
  dfs::Dfs fs(client, {}, rank + 1);
  dfs::PosixFs pfs(fs, {}, &meta_lock);
  dfs::ForecastFiles files(pfs);
  struct Flush {
    FsShared& s;
    dfs::Dfs& d;
    dfs::PosixFs& p;
    daos::Client& c;
    ~Flush() {
      s.dfs_stats += d.stats();
      s.posix_stats += p.stats();
      s.client_stats += c.stats();
    }
  } flush{shared, fs, pfs, client};

  co_await formatted.wait();
  const Status mounted = co_await fs.mount(std::string(kContainer));
  if (!mounted.is_ok()) shared.fail("dfs mount failed: " + mounted.to_string());
  const std::string forecast = "fc" + std::to_string(rank);

  for (std::uint32_t op = 0; op < camp.ops && !shared.failed; ++op) {
    const std::string canonical = field_canonical(rank, op);
    const auto payload = bench::make_field_payload(canonical, camp.field_size);
    const auto patch = bench::make_field_payload(canonical + "#patch", kPatchLen);
    const std::string path = dfs::ForecastFiles::field_path(forecast, field_name(op));
    client.set_trace_iteration(op);
    obs::Span io_span("io", "io", actor, op, static_cast<double>(camp.field_size));
    const sim::TimePoint t0 = cluster.scheduler().now();
    Status st = co_await files.write_field(forecast, field_name(op), payload.data(),
                                           camp.field_size);
    if (st.is_ok()) {
      auto fd = co_await pfs.open(path);
      if (fd.is_ok()) {
        st = co_await pfs.pwrite(fd.value(), kPatchOffset, patch.data(), kPatchLen);
        const Status closed = co_await pfs.close(fd.value());
        if (st.is_ok()) st = closed;
      } else {
        st = fd.status();
      }
    }
    if (st.is_ok() && op % 4 == 3) {
      auto names = co_await files.list_fields(forecast);
      if (!names.is_ok()) st = names.status();
    }
    if (st.is_ok()) {
      const auto committed = co_await fs.commit();
      if (!committed.is_ok()) st = committed.status();
    }
    if (!st.is_ok()) {
      shared.fail("publish failed: " + st.to_string());
      break;
    }
    wlog.record(node, proc, op, t0, cluster.scheduler().now(), camp.field_size);
  }

  co_await phase.arrive_and_wait();

  std::vector<std::uint8_t> buf(static_cast<std::size_t>(camp.field_size));
  for (std::uint32_t op = 0; op < camp.ops && !shared.failed; ++op) {
    const std::string canonical = field_canonical(rank, op);
    client.set_trace_iteration(op);
    obs::Span io_span("io", "io", actor, op, static_cast<double>(camp.field_size));
    const sim::TimePoint t0 = cluster.scheduler().now();
    auto n = co_await files.read_field(forecast, field_name(op), buf.data(), camp.field_size);
    if (!n.is_ok() || n.value() != camp.field_size) {
      shared.fail("read failed: " +
                  (n.is_ok() ? std::string("short read") : n.status().to_string()));
      break;
    }
    if (!md5_matches(buf.data(), n.value(), canonical)) {
      shared.fail("payload MD5 mismatch: " + canonical);
      break;
    }
    ++shared.verified_reads;
    const Status removed = co_await files.remove_field(forecast, field_name(op));
    if (!removed.is_ok()) {
      shared.fail("unlink failed: " + removed.to_string());
      break;
    }
    rlog.record(node, proc, op, t0, cluster.scheduler().now(), n.value());
  }
}

std::vector<daos::ClusterConfig> posix_meta_clusters(std::uint64_t, Scale) {
  daos::ClusterConfig cfg = bench::testbed_config(2, FsCampaign{}.client_nodes);
  cfg.payload_mode = daos::PayloadMode::full;  // MD5 verification needs bytes
  return {cfg};
}

Rep posix_meta(std::uint64_t seed, Scale scale, std::size_t) {
  const bool tiny = scale == Scale::tiny;
  FsCampaign camp;
  camp.ppn = tiny ? 2 : 8;
  camp.ops = tiny ? 4 : 64;
  daos::ClusterConfig cfg = posix_meta_clusters(seed, scale)[0];
  cfg.seed = seed;
  const std::size_t procs = camp.client_nodes * camp.ppn;

  Rep rep;
  rep.attempted = 2ull * procs * camp.ops;
  sim::Scheduler sched;
  const obs::ScopedClock trace_clock(sched);
  daos::Cluster cluster(sched, cfg);
  FsShared shared;
  bench::IoLog wlog;
  bench::IoLog rlog;
  sim::Barrier phase(sched, procs);
  sim::Mutex meta_lock(sched);  // the POSIX adapter's cross-process lock
  sim::Gate formatted(sched);
  sched.spawn(format_namespace(cluster, shared, formatted));
  for (std::uint32_t n = 0; n < camp.client_nodes; ++n) {
    for (std::uint32_t p = 0; p < camp.ppn; ++p) {
      sched.spawn(posix_process(cluster, camp, meta_lock, formatted, shared, wlog, rlog, phase, n,
                                p, n * static_cast<std::uint32_t>(camp.ppn) + p));
    }
  }
  Stopwatch clock;
  if (!run_guarded(rep, [&] { sched.run(); })) return rep;
  rep.run_s = clock.lap();
  rep.layer = bench::snapshot_run_metrics(sched, cluster.flows().stats(), wlog, rlog,
                                          shared.client_stats, nullptr, &cluster);
  shared.dfs_stats.fold_into(rep.layer);
  shared.posix_stats.fold_into(rep.layer);
  add_cluster_counters(rep.layer, cluster, shared.client_stats);
  rep.fold_s = clock.lap();
  take_logs(rep, wlog, rlog);
  rep.verified = shared.verified_reads > 0 && 2 * shared.verified_reads == rep.attempted;
  if (shared.failed) rep.failure = shared.failure;
  return rep;
}

}  // namespace

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double time_setup(const Workload& w, std::uint64_t seed, Scale scale) {
  const std::vector<daos::ClusterConfig> configs = w.clusters(seed, scale);
  std::vector<std::unique_ptr<sim::Scheduler>> scheds;
  std::vector<std::unique_ptr<daos::Cluster>> clusters;
  const double start = process_cpu_seconds();
  for (const daos::ClusterConfig& cfg : configs) {
    scheds.push_back(std::make_unique<sim::Scheduler>());
    clusters.push_back(std::make_unique<daos::Cluster>(*scheds.back(), cfg));
  }
  return process_cpu_seconds() - start;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"field_contention", field_contention, field_contention_clusters, true, false, 0.95},
      {"chaos_rebuild", chaos_rebuild, chaos_rebuild_clusters, true, true, 0.26},
      {"serving_snapshot", serving_snapshot, serving_snapshot_clusters, true, false, 1.25},
      {"posix_meta", posix_meta, posix_meta_clusters, true, true, 0.19},
      {"partitioned_campaign", partitioned_campaign, partitioned_campaign_clusters, false, false,
       1.6},
  };
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace nwsbench
