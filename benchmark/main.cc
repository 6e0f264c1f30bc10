// nwsbench: the simulator's simulated I/O performance and its host cost,
// end to end and layer by layer, over five workloads (README.md here).
//
//   nwsbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]
//   nwsbench --smoke
//
// Run protocol for one workload: one untimed warm-up repetition, then R
// timed repetitions run serially, repetition r at seed
// `seed + 1000003 * (r + 1)`, each followed by a burst of set-up probes
// (cluster construction).  R follows from --seconds and the workload's
// constant rep_seconds, never from measured time, so the simulated metrics
// are a pure function of (seed, seconds).  With --trace 1 the rep-0 seed
// runs twice more, untraced and then under an obs::TraceRecorder, and the
// per-layer metrics are added.  The record is one JSON object on the last
// line of stdout; benchmark/run.py adds the process's peak RSS.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/md5.h"
#include "common/stats.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "traced.h"
#include "workloads.h"

namespace {

using nwsbench::Rep;
using nwsbench::Scale;
using nwsbench::Workload;

struct MetricDef {
  const char* name;
  const char* unit;
};

// peak_rss_mib, the ninth end-to-end metric, is measured by run.py.
constexpr MetricDef kEndToEnd[] = {
    {"write_gib_s", "GiB/s"}, {"read_gib_s", "GiB/s"}, {"write_p50_ms", "ms"},
    {"write_p99_ms", "ms"},   {"read_p50_ms", "ms"},   {"read_p99_ms", "ms"},
    {"cpu_s", "s"},           {"setup_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_host_s", "1/s"},
    {"sim.partition.windows", "count"},
    {"sim.partition.null_window_ratio", "ratio"},
    {"sim.partition.cross_events", "count"},
    {"sim.partition.barrier_wait_share", "ratio"},
    {"net.flows", "count"},
    {"net.solves_per_flow", "ratio"},
    {"net.peak_concurrent_flows", "count"},
    {"net.flow_ms.p50", "ms"},
    {"net.flow_ms.p99", "ms"},
    {"daos.kv_ops_per_field", "ratio"},
    {"daos.array_ops_per_field", "ratio"},
    {"daos.kv_put_ms.p50", "ms"},
    {"daos.kv_put_ms.p99", "ms"},
    {"daos.kv_get_ms.p50", "ms"},
    {"daos.kv_get_ms.p99", "ms"},
    {"daos.array_write_ms.p50", "ms"},
    {"daos.array_write_ms.p99", "ms"},
    {"daos.array_read_ms.p50", "ms"},
    {"daos.array_read_ms.p99", "ms"},
    {"daos.payload_mib", "MiB"},
    {"daos.op_retries", "count"},
    {"daos.rpc_timeouts", "count"},
    {"epoch.commits", "count"},
    {"epoch.commit_ms.p50", "ms"},
    {"epoch.write_amp", "ratio"},
    {"epoch.live_version_mib", "MiB"},
    {"epoch.snapshots_opened", "count"},
    {"rebuild.objects_rebuilt", "count"},
    {"rebuild.degraded_reads", "count"},
    {"rebuild.window_s", "s"},
    {"rebuild.objects_lost", "count"},
    {"fault.rpc_drops", "count"},
    {"fault.transient_errors", "count"},
    {"fault.outage_rejections", "count"},
    {"fault.retry_backoff_s", "s"},
    {"fdb.retries", "count"},
    {"fdb.index_share", "ratio"},
    {"fdb.data_share", "ratio"},
    {"fdb.open_share", "ratio"},
    {"fdb.retry_share", "ratio"},
    {"fdb.uncovered_share", "ratio"},
    {"dfs.lookups_per_field", "ratio"},
    {"dfs.create_ms.p50", "ms"},
    {"dfs.rename_ms.p50", "ms"},
    {"dfs.write_ms.p50", "ms"},
    {"dfs.posix.meta_wait_ms.p50", "ms"},
    {"dfs.posix.meta_wait_ms.p99", "ms"},
    {"dfs.posix.rmw_reads", "count"},
    {"ioserver.fields_stored", "count"},
    {"ioserver.steps_committed", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions", "count"},
    {"admission.queued", "count"},
    {"admission.wait_ms.p99", "ms"},
    {"pgen.polls", "count"},
    {"pgen.snapshot_fallbacks", "count"},
    {"host.wall_s", "s"},
    {"host.run_s", "s"},
    {"host.fold_s", "s"},
    {"obs.spans", "count"},
    {"obs.trace_overhead", "ratio"},
};

constexpr double kMiB = 1024.0 * 1024.0;

/// Set-up probes after each timed repetition: untimed ones that bring the
/// construction's memory back into cache, then timed ones.
constexpr std::size_t kSetupWarmup = 3;
constexpr std::size_t kSetupProbes = 7;

std::uint64_t rep_seed(std::uint64_t base, std::size_t r) { return base + 1000003ull * (r + 1); }

std::size_t default_workers() {
  return std::max<std::size_t>(1, std::min<std::size_t>(4, std::thread::hardware_concurrency()));
}

/// One repetition, timed whole by the benchmark's own clocks.  Anything a
/// workload throws during set-up fails the repetition instead of the run.
Rep run_rep(const Workload& w, std::uint64_t seed, Scale scale, std::size_t workers) {
  const auto t0 = std::chrono::steady_clock::now();
  const double cpu0 = nwsbench::process_cpu_seconds();
  Rep rep;
  try {
    rep = w.run(seed, scale, workers);
  } catch (const std::exception& e) {
    rep = Rep{};
    rep.failure = e.what();
  }
  rep.cpu_s = nwsbench::process_cpu_seconds() - cpu0;
  rep.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return rep;
}

struct Traced {
  Rep rep;
  std::size_t spans = 0;
  std::map<std::string, double> span_values;
};

Traced run_traced(const Workload& w, std::uint64_t seed, Scale scale, std::size_t workers,
                  const std::string& trace_dir) {
  nws::obs::TraceRecorder recorder;
  Traced out;
  {
    const nws::obs::TraceSession session(recorder);
    out.rep = run_rep(w, seed, scale, workers);
  }
  out.spans = recorder.span_count();
  out.span_values = nwsbench::span_metrics(recorder.spans(), w.span_shares);
  if (!trace_dir.empty()) {
    std::ofstream os(trace_dir + "/nwsbench." + w.name + ".trace.json");
    recorder.write_chrome_json(os);
    if (!os) std::cerr << "nwsbench: could not write the trace into " << trace_dir << "\n";
  }
  return out;
}

double scalar(const nws::obs::MetricsSnapshot& m, const std::string& name) {
  const auto it = m.metrics().find(name);
  return it == m.metrics().end() || it->second.kind == nws::obs::MetricKind::histogram
             ? 0.0
             : it->second.value;
}

double hist_ms(const nws::obs::MetricsSnapshot& m, const std::string& name, double p) {
  const auto it = m.metrics().find(name);
  return it == m.metrics().end() || it->second.samples.empty()
             ? 0.0
             : it->second.samples.percentile(p) * 1e3;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Hash of everything simulated in one repetition.
std::string rep_digest(const Rep& r) {
  std::ostringstream os;
  const auto num = [&os](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g,", v);
    os << buf;
  };
  num(r.write_gib_s);
  num(r.read_gib_s);
  os << r.attempted << ',' << r.completed << ',' << r.failure << ';';
  for (const double v : r.write_latency_s.samples()) num(v);
  os << ';';
  for (const double v : r.read_latency_s.samples()) num(v);
  nws::obs::JsonWriter w(os);
  r.layer.write_json(w);
  return nws::md5(os.str()).hex();
}

/// What the timed repetitions leave behind.  Each repetition is folded in as
/// it finishes and then dropped, so the process's peak RSS is the workload's
/// and not R repetitions' records.
struct Totals {
  std::size_t reps = 0;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::vector<std::string> failures;
  bool verified = true;  // every repetition verified payloads as declared
  double write_gib_s = 0.0;  // sums over repetitions
  double read_gib_s = 0.0;
  std::vector<double> write_latency_s;  // pooled
  std::vector<double> read_latency_s;
  nws::obs::MetricsSnapshot layer;  // counters add, gauges max; no histograms
  std::vector<double> cpu_s;        // per repetition
  std::vector<double> wall_s;
  std::vector<double> run_s;
  std::vector<double> fold_s;
  std::vector<double> setup_s;  // median of the set-up burst after each repetition
  double worker_s = 0.0;   // workers x run seconds
  double barrier_s = 0.0;
  std::string digests;     // rep_digest of each repetition, in order

  void add(const Rep& r, const Workload& w, std::size_t expected_reps) {
    if (reps++ == 0) {
      write_latency_s.reserve(expected_reps * r.write_latency_s.count());
      read_latency_s.reserve(expected_reps * r.read_latency_s.count());
    }
    attempted += r.attempted;
    completed += std::min(r.completed, r.attempted);
    if (!r.failure.empty()) failures.push_back(r.failure);
    verified = verified && r.verified == w.verifies;
    write_gib_s += r.write_gib_s;
    read_gib_s += r.read_gib_s;
    const auto& ws = r.write_latency_s.samples();
    const auto& rs = r.read_latency_s.samples();
    write_latency_s.insert(write_latency_s.end(), ws.begin(), ws.end());
    read_latency_s.insert(read_latency_s.end(), rs.begin(), rs.end());
    for (const auto& [name, m] : r.layer.metrics()) {
      if (m.kind == nws::obs::MetricKind::counter) layer.counter(name, m.value);
      if (m.kind == nws::obs::MetricKind::gauge) layer.gauge(name, m.value);
    }
    cpu_s.push_back(r.cpu_s);
    wall_s.push_back(r.wall_s);
    run_s.push_back(r.run_s);
    fold_s.push_back(r.fold_s);
    worker_s += static_cast<double>(r.workers) * r.run_s;
    barrier_s += r.barrier_wait_s;
    digests += rep_digest(r);
  }

  /// Equal digests mean bit-identical simulated metrics.
  [[nodiscard]] std::string sim_digest() const { return nws::md5(digests).hex(); }
};

double median(std::vector<double> v) { return nws::Summary(std::move(v)).median(); }

/// Host CPU seconds of the workload's cluster construction: the median of a
/// burst of probes.
double setup_burst(const Workload& w, std::uint64_t seed) {
  for (std::size_t i = 0; i < kSetupWarmup; ++i) nwsbench::time_setup(w, seed, Scale::full);
  std::vector<double> probes;
  for (std::size_t i = 0; i < kSetupProbes; ++i) {
    probes.push_back(nwsbench::time_setup(w, seed, Scale::full));
  }
  return median(std::move(probes));
}

std::map<std::string, double> end_to_end(const Totals& t) {
  const double n = static_cast<double>(t.reps);
  const nws::Summary wl(t.write_latency_s);
  const nws::Summary rl(t.read_latency_s);
  std::map<std::string, double> m;
  m["write_gib_s"] = t.write_gib_s / n;
  m["read_gib_s"] = t.read_gib_s / n;
  m["write_p50_ms"] = wl.empty() ? 0.0 : wl.percentile(50) * 1e3;
  m["write_p99_ms"] = wl.empty() ? 0.0 : wl.percentile(99) * 1e3;
  m["read_p50_ms"] = rl.empty() ? 0.0 : rl.percentile(50) * 1e3;
  m["read_p99_ms"] = rl.empty() ? 0.0 : rl.percentile(99) * 1e3;
  // Host times take the low end of the run.  The host has phases, from under
  // a second to minutes long, in which the same work reads up to 1.8x
  // slower; in a busy stretch they cover half the run, and a median follows
  // them.  Set-up bursts last under a millisecond and their fastest few are
  // outliers, so setup_s takes the lower quartile rather than the least.
  m["cpu_s"] = *std::min_element(t.cpu_s.begin(), t.cpu_s.end());
  m["setup_s"] = nws::Summary(t.setup_s).percentile(25);
  return m;
}

/// Per-layer metrics: counts from the timed repetitions, the rest (†) from
/// the traced one.  `untraced_cpu_s` is the same seed's repetition run
/// untraced just before it.
std::map<std::string, double> per_layer(const Totals& t, const Traced& traced,
                                        double untraced_cpu_s) {
  const nws::obs::MetricsSnapshot& f = t.layer;
  const nws::obs::MetricsSnapshot& tf = traced.rep.layer;
  const double n = static_cast<double>(t.reps);
  const double fields = static_cast<double>(t.completed);
  const auto mean = [&](const char* name) { return scalar(f, name) / n; };
  double run_s = 0.0;
  for (const double s : t.run_s) run_s += s;

  std::map<std::string, double> m = traced.span_values;
  m["sim.events"] = mean("sim.events_executed");
  m["sim.events_per_host_s"] = ratio(scalar(f, "sim.events_executed"), run_s);
  m["sim.partition.windows"] = mean("sim.partition.windows");
  m["sim.partition.null_window_ratio"] =
      ratio(scalar(f, "sim.partition.null_windows"),
            scalar(f, "sim.partition.windows") * scalar(f, "sim.partition.groups"));
  m["sim.partition.cross_events"] = mean("sim.partition.cross_events");
  m["sim.partition.barrier_wait_share"] = ratio(t.barrier_s, t.worker_s);
  m["net.flows"] = mean("net.flows_completed");
  m["net.solves_per_flow"] =
      ratio(scalar(f, "net.rate_recomputations"), scalar(f, "net.flows_completed"));
  m["net.peak_concurrent_flows"] = scalar(f, "net.peak_concurrent_flows");
  m["daos.kv_ops_per_field"] = ratio(scalar(f, "daos.kv_puts") + scalar(f, "daos.kv_gets"), fields);
  m["daos.array_ops_per_field"] =
      ratio(scalar(f, "daos.array_writes") + scalar(f, "daos.array_reads"), fields);
  m["daos.payload_mib"] = mean("daos.payload_bytes") / kMiB;
  m["daos.op_retries"] = mean("daos.op_retries");
  m["daos.rpc_timeouts"] = mean("daos.rpc_timeouts");
  m["epoch.commits"] = mean("epoch.commits");
  m["epoch.write_amp"] =
      1.0 + ratio(scalar(f, "epoch.cow_bytes"), scalar(f, "daos.bytes_written"));
  m["epoch.live_version_mib"] = scalar(f, "epoch.live_version_bytes") / kMiB;
  m["epoch.snapshots_opened"] = mean("epoch.snapshots_opened");
  m["rebuild.objects_rebuilt"] = mean("rebuild.objects_rebuilt");
  m["rebuild.degraded_reads"] = mean("rebuild.degraded_reads");
  m["rebuild.window_s"] = scalar(f, "rebuild.window_seconds");
  m["rebuild.objects_lost"] = scalar(f, "rebuild.objects_lost");  // total, must be 0
  m["fault.rpc_drops"] = mean("fault.rpc_drops");
  m["fault.transient_errors"] = mean("fault.transient_errors");
  m["fault.outage_rejections"] = mean("fault.outage_rejections");
  m["fdb.retries"] = mean("fdb.retries");
  m["dfs.lookups_per_field"] = ratio(scalar(f, "dfs.lookups"), fields);
  m["dfs.posix.meta_wait_ms.p50"] = hist_ms(tf, "dfs.posix.meta_wait_seconds", 50);
  m["dfs.posix.meta_wait_ms.p99"] = hist_ms(tf, "dfs.posix.meta_wait_seconds", 99);
  m["dfs.posix.rmw_reads"] = mean("dfs.posix.rmw_reads");
  m["ioserver.fields_stored"] = mean("ioserver.fields_stored");
  m["ioserver.steps_committed"] = mean("ioserver.steps_committed");
  const double hits = scalar(f, "cache.hits") + scalar(f, "cache.coalesced");
  m["cache.hit_ratio"] = ratio(hits, hits + scalar(f, "cache.misses"));
  m["cache.evictions"] = mean("cache.evictions");
  m["admission.queued"] = mean("admission.queued");
  m["admission.wait_ms.p99"] = hist_ms(tf, "admission.wait_seconds", 99);
  m["pgen.polls"] = mean("pgen.polls");
  m["pgen.snapshot_fallbacks"] = mean("pgen.snapshot_fallbacks");
  m["host.wall_s"] = median(t.wall_s);
  m["host.run_s"] = median(t.run_s);
  m["host.fold_s"] = median(t.fold_s);
  m["obs.spans"] = static_cast<double>(traced.spans);
  m["obs.trace_overhead"] = ratio(traced.rep.cpu_s, untraced_cpu_s) - 1.0;
  return m;
}

void write_metrics(nws::obs::JsonWriter& w, const char* key, const MetricDef* defs,
                   std::size_t count, const std::map<std::string, double>& values) {
  w.key(key);
  w.begin_object();
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = values.find(defs[i].name);
    w.key(defs[i].name);
    w.begin_object();
    w.member("value", it == values.end() ? 0.0 : it->second);
    w.member("unit", defs[i].unit);
    w.end_object();
  }
  w.end_object();
}

void write_doubles(nws::obs::JsonWriter& w, const char* key, const std::vector<double>& v) {
  w.key(key);
  w.begin_array();
  for (const double x : v) w.value(x);
  w.end_array();
}

struct Options {
  std::uint64_t seed = 1;
  std::size_t reps = 3;
  bool trace = false;
  std::string trace_dir;
  std::size_t workers = 1;
};

int run_workload(const Workload& w, const Options& opt) {
  const Rep warm = run_rep(w, opt.seed, Scale::full, opt.workers);
  Totals t;
  for (std::size_t r = 0; r < opt.reps; ++r) {
    t.add(run_rep(w, rep_seed(opt.seed, r), Scale::full, opt.workers), w, opt.reps);
    // Set-up is timed between repetitions, so its bursts spread over the
    // whole run, and outside them, so cpu_s leaves it out.
    t.setup_s.push_back(setup_burst(w, opt.seed));
  }

  const std::map<std::string, double> e2e = end_to_end(t);
  const bool correct = t.attempted > 0 && t.completed == t.attempted && t.failures.empty() &&
                       t.verified && scalar(t.layer, "rebuild.objects_lost") == 0.0 &&
                       e2e.at("write_gib_s") > 0.0 && e2e.at("read_gib_s") > 0.0;
  for (const std::string& f : t.failures) std::cerr << "nwsbench: " << w.name << ": " << f << "\n";
  // Peak RSS of the timed repetitions, read before the traced one can raise
  // it; run.py prefers the child's wait4 figure when nothing was traced.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double timed_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::map<std::string, double> layer;
  if (opt.trace) {
    // The untraced baseline runs right before the traced repetition, so both
    // see the same host conditions.
    const std::uint64_t seed0 = rep_seed(opt.seed, 0);
    const double untraced_cpu_s = run_rep(w, seed0, Scale::full, opt.workers).cpu_s;
    const Traced traced = run_traced(w, seed0, Scale::full, opt.workers, opt.trace_dir);
    layer = per_layer(t, traced, untraced_cpu_s);
  }

  std::ostringstream os;
  nws::obs::JsonWriter j(os);
  j.begin_object();
  j.member("workload", w.name);
  j.member("seed", opt.seed);
  j.member("reps", static_cast<std::uint64_t>(opt.reps));
  j.key("stamp");
  j.begin_object();
  j.member("compiler", NWSBENCH_COMPILER);
  j.member("flags", NWSBENCH_FLAGS);
  j.member("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  j.member("workers", static_cast<std::uint64_t>(opt.workers));
  j.end_object();
  j.member("correct", correct);
  j.member("attempted", t.attempted);
  j.member("failed", t.attempted - t.completed);
  j.member("failed_op_ratio", ratio(static_cast<double>(t.attempted - t.completed),
                                    static_cast<double>(t.attempted)));
  j.key("samples");
  j.begin_object();
  j.member("write", static_cast<std::uint64_t>(t.write_latency_s.size()));
  j.member("read", static_cast<std::uint64_t>(t.read_latency_s.size()));
  j.end_object();
  j.key("host");
  j.begin_object();
  const nws::Summary cpu(t.cpu_s);
  j.member("cpu_q1_s", cpu.percentile(25));
  j.member("cpu_median_s", cpu.median());
  j.member("cpu_q3_s", cpu.percentile(75));
  j.member("warmup_wall_s", warm.wall_s);
  j.member("timed_peak_rss_mib", timed_rss_mib);
  write_doubles(j, "rep_cpu_s", t.cpu_s);
  write_doubles(j, "rep_wall_s", t.wall_s);
  write_doubles(j, "rep_run_s", t.run_s);
  write_doubles(j, "rep_fold_s", t.fold_s);
  write_doubles(j, "setup_burst_s", t.setup_s);
  j.end_object();
  j.member("sim_digest", t.sim_digest());
  write_metrics(j, "end_to_end", kEndToEnd, std::size(kEndToEnd), e2e);
  if (opt.trace) write_metrics(j, "per_layer", kPerLayer, std::size(kPerLayer), layer);
  j.end_object();
  std::cout << os.str() << "\n";
  return 0;
}

/// --smoke: every workload at tiny scale, one repetition, seeds 1 and 2.
int smoke() {
  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    if (!ok) ++failures;
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  };
  const std::size_t workers = std::max<std::size_t>(2, default_workers());
  for (const Workload& w : nwsbench::workloads()) {
    for (const std::uint64_t seed : {1u, 2u}) {
      const std::string tag = std::string(w.name) + " seed " + std::to_string(seed) + ": ";
      const Rep a = run_rep(w, seed, Scale::tiny, workers);
      if (!a.failure.empty()) std::cout << "     " << a.failure << "\n";
      check(a.failure.empty() && a.attempted > 0 && a.completed == a.attempted,
            tag + "failed_op_ratio == 0");
      check(scalar(a.layer, "rebuild.objects_lost") == 0.0, tag + "rebuild.objects_lost == 0");
      if (std::string(w.name) == "chaos_rebuild") {
        check(scalar(a.layer, "rebuild.targets_excluded") > 0.0,
              tag + "a target was lost and excluded");
      }
      if (w.verifies) check(a.verified, tag + "every read payload was verified");
      const std::string digest = rep_digest(a);
      check(digest == rep_digest(run_rep(w, seed, Scale::tiny, workers)),
            tag + "simulated metrics identical across invocations");
      if (std::string(w.name) == "partitioned_campaign") {
        check(digest == rep_digest(run_rep(w, seed, Scale::tiny, 1)),
              tag + "simulated metrics identical at 1 and " + std::to_string(workers) + " workers");
      }
      const Traced traced = run_traced(w, seed, Scale::tiny, workers, "");
      check(digest == rep_digest(traced.rep), tag + "tracing leaves simulated metrics unchanged");
      if (w.span_shares) {
        double sum = 0.0;
        for (const char* s : {"fdb.index_share", "fdb.data_share", "fdb.open_share",
                              "fdb.retry_share", "fdb.uncovered_share"}) {
          const auto it = traced.span_values.find(s);
          sum += it == traced.span_values.end() ? 0.0 : it->second;
        }
        check(std::fabs(sum - 1.0) <= 1e-9, tag + "traced shares sum to 1");
      }
      Totals one;
      one.add(a, w, 1);
      for (const auto& [name, value] : per_layer(one, traced, a.cpu_s)) {
        const bool declared = std::any_of(std::begin(kPerLayer), std::end(kPerLayer),
                                          [&](const MetricDef& d) { return name == d.name; });
        if (!declared) check(false, tag + "undeclared per-layer metric " + name);
      }
    }
  }
  std::cout << (failures == 0 ? "smoke passed\n" : "smoke FAILED\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Fixed allocator thresholds.  glibc's adaptive ones make a process either
  // reuse freed payload buffers or hand them back to the kernel and fault
  // them in again, which moves chaos_rebuild's host time by half from one
  // run to the next.  Freed memory now stays in the process.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  nws::Cli cli;
  cli.add_flag("workload", "", "workload to run (field_contention, chaos_rebuild, "
                               "serving_snapshot, posix_meta, partitioned_campaign)");
  cli.add_flag("seed", "1", "base seed; repetition r runs at seed + 1000003 * (r + 1)");
  cli.add_flag("seconds", "15", "measurement length; sets the repetition count");
  cli.add_flag("trace", "0", "1: add a traced repetition and the per-layer metrics");
  cli.add_flag("trace-dir", "", "also write the traced repetition as Chrome JSON here");
  cli.add_flag("smoke", "false", "tiny-scale self-check of every workload");
  try {
    if (!cli.parse(argc, argv)) return 0;
    if (cli.get_bool("smoke")) return smoke();
    const Workload* w = nwsbench::find_workload(cli.get("workload"));
    if (w == nullptr) {
      std::cerr << "nwsbench: unknown --workload '" << cli.get("workload") << "'\n";
      return 2;
    }
    Options opt;
    opt.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const double seconds = cli.get_double("seconds");
    opt.reps = static_cast<std::size_t>(std::max(3.0, std::round(seconds / w->rep_seconds)));
    opt.trace = cli.get_int("trace") != 0;
    opt.trace_dir = cli.get("trace-dir");
    opt.workers = default_workers();
    return run_workload(*w, opt);
  } catch (const std::exception& e) {
    std::cerr << "nwsbench: " << e.what() << "\n";
    return 2;
  }
}
