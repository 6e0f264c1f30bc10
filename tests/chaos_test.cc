// Seeded chaos / property harness for the DAOS simulation.
//
// Each scenario derives a cluster shape, workload and fault profile from a
// single seed, runs a full field-I/O benchmark under injected faults, and
// checks the invariants that must hold for EVERY seed (SimChecker): all
// processes and flows drained, bytes conserved, monotone per-op timing, and
// bandwidth equations 1-2 consistent with the op log.  verify_payload runs
// the benchmark with real payloads so every read is verified byte for byte,
// in place, against the deterministic payload (verify_field_payload).
//
// Reproducing a failure: every scenario is a pure function of its seed.  The
// sweep prints the seed of any violating scenario; replay just that one with
//
//   NWS_CHAOS_SEED=<seed> NWS_CHAOS_COUNT=1
//       ./chaos_test --gtest_filter=ChaosSweep.DefaultProfileHoldsInvariants
//   (one shell line; wrapped here for readability)
//
// NWS_CHAOS_SEED shifts the sweep's base seed (default 1) and NWS_CHAOS_COUNT
// its scenario count (default 200), so the same binary serves as both the CI
// sweep and the single-seed repro tool.  Adding NWS_CHAOS_TRACE=<file> to a
// replay additionally exports the scenario's trace spans as Chrome trace
// JSON (loadable in Perfetto) for visual fault forensics.
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "checker.h"
#include "common/rng.h"
#include "daos/client.h"
#include "daos/cluster.h"
#include "fault/fault_plan.h"
#include "fdb/field_io.h"
#include "harness/experiment.h"
#include "harness/field_bench.h"
#include "harness/run_pool.h"
#include "obs/trace.h"

namespace nws::bench {
namespace {

using nws::operator""_KiB;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  // NWSLINT(allow:determinism): replay-knob helper; every call site passes an NWS_* literal
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

// ---- scenario derivation ----------------------------------------------------

struct Scenario {
  std::uint64_t seed = 0;
  char pattern = 'A';
  daos::ClusterConfig cfg;
  FieldBenchParams params;
};

/// Everything about a scenario is a pure function of `seed`: cluster shape,
/// access pattern, contention, field size AND the fault profile.
Scenario make_scenario(std::uint64_t seed) {
  Scenario sc;
  sc.seed = seed;
  Rng rng(mix64(seed ^ 0xc4a05c4a05ull));

  const std::size_t client_nodes = 1 + rng.next_below(2);
  sc.cfg = testbed_config(1, client_nodes);
  sc.cfg.seed = mix64(seed);
  sc.cfg.payload_mode = daos::PayloadMode::full;  // real bytes: verifiable
  sc.cfg.fault_spec = fault::FaultSpec::default_chaos(mix64(seed ^ 0xfa017ull));

  sc.pattern = rng.next_below(2) == 0 ? 'A' : 'B';
  switch (rng.next_below(3)) {
    case 0: sc.params.mode = fdb::Mode::full; break;
    case 1: sc.params.mode = fdb::Mode::no_containers; break;
    default: sc.params.mode = fdb::Mode::no_index; break;
  }
  sc.params.shared_forecast_index = rng.next_below(2) == 1;
  sc.params.ops_per_process = static_cast<std::uint32_t>(2 + rng.next_below(3));  // 2-4
  sc.params.processes_per_node = 2 + 2 * rng.next_below(2);                       // 2 or 4
  sc.params.field_size = rng.next_below(2) == 0 ? 64_KiB : 256_KiB;
  sc.params.verify_payload = true;
  sc.params.log_detail_capacity = 4096;  // >= every op, for SimChecker
  // Pattern B runs under genuine snapshot isolation: writers publish every
  // re-write with commit(), readers pin a committed epoch and verify the
  // pinned version byte-stably (field_bench.cc) — a torn read under faults
  // fails the scenario.  The retention depth is part of the derived shape.
  sc.cfg.model.epoch_retention_depth = 2 + rng.next_below(7);  // 2-8
  if (sc.pattern == 'B') sc.params.snapshot_reads = true;
  // Permanent failures — drawn LAST so every pre-existing scenario shape
  // replays unchanged.  Roughly a quarter of the scenarios lose one or two
  // targets for good mid-run; their workload then uses object classes whose
  // redundancy covers the failure count, so the sweep can assert zero loss.
  const std::size_t permanent = rng.next_below(4) == 0 ? 1 + rng.next_below(2) : 0;
  if (permanent > 0) {
    sc.cfg.fault_spec.permanent_failures = permanent;
    sc.params.kv_class = permanent == 1 ? daos::ObjectClass::RP_2 : daos::ObjectClass::RP_3;
    if (permanent == 1) {
      constexpr daos::ObjectClass kSurvivesOne[] = {
          daos::ObjectClass::RP_2, daos::ObjectClass::EC_2P1, daos::ObjectClass::RP_3};
      sc.params.array_class = kSurvivesOne[rng.next_below(3)];
    } else {
      constexpr daos::ObjectClass kSurvivesTwo[] = {daos::ObjectClass::RP_3,
                                                    daos::ObjectClass::EC_4P2};
      sc.params.array_class = kSurvivesTwo[rng.next_below(2)];
    }
  }
  return sc;
}

// ---- run + fingerprint ------------------------------------------------------

struct Outcome {
  bool failed = false;
  std::string failure;
  std::vector<std::string> violations;
  std::uint64_t fingerprint = 0;
  std::uint64_t retries = 0;
  std::uint64_t faults_fired = 0;
  std::uint64_t snapshot_reads = 0;
};

std::uint64_t fp(std::uint64_t h, std::uint64_t v) { return mix64(h ^ mix64(v)); }
std::uint64_t fp(std::uint64_t h, double v) { return fp(h, std::bit_cast<std::uint64_t>(v)); }

std::uint64_t log_fingerprint(std::uint64_t h, const IoLog& log) {
  h = fp(h, log.operations());
  h = fp(h, log.total_bytes());
  h = fp(h, log.total_retries());
  for (const IoRecord& r : log.detail()) {
    h = fp(h, static_cast<std::uint64_t>(r.io_start));
    h = fp(h, static_cast<std::uint64_t>(r.io_end));
    h = fp(h, r.size);
    h = fp(h, (static_cast<std::uint64_t>(r.node) << 40) ^ (static_cast<std::uint64_t>(r.proc) << 20) ^
                  r.retries);
  }
  return h;
}

Outcome run_scenario(std::uint64_t seed) {
  const Scenario sc = make_scenario(seed);
  sim::Scheduler sched;
  // NWS_CHAOS_TRACE=<file>: export this scenario's spans as Chrome trace
  // JSON (Perfetto-loadable).  Only honoured together with NWS_CHAOS_SEED —
  // a single-seed replay runs serially, so exactly one scenario writes the
  // file.  Tracing never perturbs the simulation, so the replayed
  // fingerprint stays bit-identical to the sweep's.
  const char* trace_path =
      std::getenv("NWS_CHAOS_SEED") != nullptr ? std::getenv("NWS_CHAOS_TRACE") : nullptr;
  obs::TraceRecorder recorder;
  std::optional<obs::TraceSession> session;
  if (trace_path != nullptr) session.emplace(recorder);
  const obs::ScopedClock trace_clock(sched);
  daos::Cluster cluster(sched, sc.cfg);
  const FieldBenchResult result = run_field_pattern(cluster, sc.params, sc.pattern);

  Outcome out;
  out.failed = result.failed;
  out.failure = result.failure;
  out.retries = result.write_log.total_retries() + result.read_log.total_retries();

  fault::SimChecker checker;
  checker.check_quiescent(sched, cluster.flows());
  const double accounted =
      static_cast<double>(result.write_log.total_bytes() + result.read_log.total_bytes());
  checker.check_conservation(cluster.flows(), accounted);
  checker.check_log(result.write_log, sched.now(), "write log");
  checker.check_log(result.read_log, sched.now(), "read log");
  out.violations = checker.violations();

  // Snapshot-isolation bookkeeping must balance at quiescence: a leaked pin
  // would wedge epoch aggregation forever.
  const daos::EpochStats pin_check = cluster.epoch_stats();
  if (pin_check.snapshots_opened != pin_check.snapshots_released) {
    out.violations.push_back("leaked snapshot pins: opened " +
                             std::to_string(pin_check.snapshots_opened) + ", released " +
                             std::to_string(pin_check.snapshots_released));
  }

  // Durability: scenarios pick object classes whose redundancy covers their
  // permanent-failure count, so losing any object shard is a violation; and
  // every queued rebuild must have converged by quiescence.
  const daos::RebuildStats& rebuild = cluster.pool_map().stats();
  if (rebuild.objects_lost != 0) {
    out.violations.push_back("durability: " + std::to_string(rebuild.objects_lost) +
                             " object shard(s) lost despite redundancy >= concurrent failures");
  }
  if (!cluster.pool_map().rebuild_idle()) {
    out.violations.push_back("rebuild queue did not drain by quiescence");
  }

  std::uint64_t h = fp(0x5eedull, seed);
  h = log_fingerprint(h, result.write_log);
  h = log_fingerprint(h, result.read_log);
  h = fp(h, static_cast<std::uint64_t>(sched.now()));
  h = fp(h, cluster.flows().stats().flows_completed);
  h = fp(h, cluster.flows().stats().bytes_delivered);
  // Epoch/MVCC activity is part of the deterministic surface: commits,
  // snapshot pins, copy-on-write bytes and pruning must replay bit-identical.
  out.snapshot_reads = result.snapshot_reads;
  const daos::EpochStats epochs = cluster.epoch_stats();
  h = fp(h, epochs.commits);
  h = fp(h, epochs.snapshots_opened);
  h = fp(h, epochs.snapshots_released);
  h = fp(h, epochs.cow_bytes);
  h = fp(h, epochs.versions_pruned);
  h = fp(h, epochs.bytes_reclaimed);
  h = fp(h, result.snapshot_reads);
  h = fp(h, result.snapshot_pin_retries);
  h = fp(h, result.snapshot_fallbacks);
  if (const fault::FaultPlan* plan = cluster.fault_plan()) {
    const fault::FaultStats& fs = plan->stats();
    out.faults_fired = fs.rpc_drops + fs.transient_errors + fs.outage_rejections + fs.windows_applied;
    h = fp(h, fs.rpc_drops);
    h = fp(h, fs.transient_errors);
    h = fp(h, fs.outage_rejections);
    h = fp(h, fs.windows_applied);
    h = fp(h, fs.permanent_failures);
  }
  // Durability accounting is part of the deterministic surface too: target
  // exclusions, shard rebuilds and degraded reads must replay bit-identical.
  h = fp(h, rebuild.targets_excluded);
  h = fp(h, rebuild.objects_degraded);
  h = fp(h, rebuild.objects_rebuilt);
  h = fp(h, rebuild.objects_lost);
  h = fp(h, rebuild.degraded_reads);
  h = fp(h, rebuild.bytes_rebuilt);
  out.fingerprint = h;

  if (trace_path != nullptr) {
    std::ofstream trace_out(trace_path);
    recorder.write_chrome_json(trace_out);
  }
  return out;
}

// ---- the sweep --------------------------------------------------------------

TEST(ChaosSweep, DefaultProfileHoldsInvariants) {
  const std::uint64_t base = env_u64("NWS_CHAOS_SEED", 1);
  const std::uint64_t count = env_u64("NWS_CHAOS_COUNT", 200);
  // The sweep fans out through parallel_map (NWS_JOBS threads, default all
  // cores); every scenario is a pure function of its seed so the outcomes —
  // and the failure report below, emitted on this thread in seed order —
  // are bit-identical at any job count.  Single-seed replay
  // (NWS_CHAOS_SEED set) stays strictly serial for clean stack traces.
  const std::size_t jobs =
      std::getenv("NWS_CHAOS_SEED") != nullptr ? 1 : normalize_jobs(env_u64("NWS_JOBS", 0));
  const std::vector<Outcome> outcomes = parallel_map(
      count, jobs, [&](std::size_t i) { return run_scenario(base + i); });

  std::uint64_t total_retries = 0;
  std::uint64_t faulted_scenarios = 0;
  std::uint64_t total_snapshot_reads = 0;
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    const Outcome& out = outcomes[seed - base];
    const std::string repro = "replay: NWS_CHAOS_SEED=" + std::to_string(seed) +
                              " NWS_CHAOS_COUNT=1 ./chaos_test "
                              "--gtest_filter=ChaosSweep.DefaultProfileHoldsInvariants";
    // With the default chaos profile the retry policy must complete every
    // operation: a failed benchmark IS an invariant violation.
    EXPECT_FALSE(out.failed) << "seed " << seed << ": " << out.failure << "\n" << repro;
    for (const std::string& violation : out.violations) {
      ADD_FAILURE() << "seed " << seed << ": " << violation << "\n" << repro;
    }
    total_retries += out.retries;
    if (out.faults_fired > 0) ++faulted_scenarios;
    total_snapshot_reads += out.snapshot_reads;
  }

  // The sweep must actually exercise the fault machinery, not vacuously
  // pass.  These are aggregates over the whole sweep; a single-seed replay
  // (NWS_CHAOS_SEED) reproduces one scenario, which may legitimately fire
  // faults yet complete without a retry, so the guards only apply to sweeps.
  if (std::getenv("NWS_CHAOS_SEED") == nullptr) {
    EXPECT_GT(faulted_scenarios, count / 2) << "chaos profile injected almost nothing";
    EXPECT_GT(total_retries, 0u) << "no operation ever retried across the sweep";
    // Roughly half the scenarios are pattern B with snapshot isolation on;
    // pinned verified reads must actually happen, or the torn-read checker
    // is passing vacuously.
    EXPECT_GT(total_snapshot_reads, 0u) << "no pinned snapshot read across the sweep";
  }
}

// ---- determinism / replay ---------------------------------------------------

TEST(ChaosReplay, SameSeedIsBitIdentical) {
  for (const std::uint64_t seed : {3ull, 17ull, 101ull}) {
    const Outcome first = run_scenario(seed);
    const Outcome second = run_scenario(seed);
    EXPECT_EQ(first.fingerprint, second.fingerprint) << "seed " << seed << " diverged on replay";
    EXPECT_EQ(first.retries, second.retries);
    EXPECT_EQ(first.failed, second.failed);
  }
}

TEST(ChaosReplay, DifferentSeedsDiverge) {
  std::vector<std::uint64_t> prints;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) prints.push_back(run_scenario(seed).fingerprint);
  bool any_diverged = false;
  for (std::size_t i = 1; i < prints.size(); ++i) any_diverged |= prints[i] != prints[0];
  EXPECT_TRUE(any_diverged) << "six different seeds produced identical runs";
}

TEST(ChaosReplay, FaultFreeBenchmarkDeterministic) {
  // Determinism regression guard for the plain (no-fault) benchmark path.
  FieldBenchParams params;
  params.mode = fdb::Mode::full;
  params.ops_per_process = 4;
  params.processes_per_node = 4;
  const RunOutcome a = run_field_once(testbed_config(1, 1), params, 'A', 23);
  const RunOutcome b = run_field_once(testbed_config(1, 1), params, 'A', 23);
  ASSERT_FALSE(a.failed);
  EXPECT_DOUBLE_EQ(a.write_bw, b.write_bw);
  EXPECT_DOUBLE_EQ(a.read_bw, b.read_bw);
  const RunOutcome c = run_field_once(testbed_config(1, 1), params, 'A', 24);
  EXPECT_NE(a.write_bw, c.write_bw);
}

// ---- retry surfacing --------------------------------------------------------

TEST(ChaosRetries, SurfacedInFieldIoClientAndOpLog) {
  // A deliberately noisy profile: ~20% of fallible ops fail transiently and
  // ~10% of RPCs are dropped, so a run of a few dozen ops always retries.
  daos::ClusterConfig cfg = testbed_config(1, 1);
  cfg.payload_mode = daos::PayloadMode::full;
  cfg.fault_spec.seed = 42;
  cfg.fault_spec.rpc_drop_rate = 0.1;
  cfg.fault_spec.rpc_timeout = sim::microseconds(50.0);
  cfg.fault_spec.transient_error_rate = 0.2;

  {
    sim::Scheduler sched;
    daos::Cluster cluster(sched, cfg);
    daos::Client client(cluster, cluster.client_endpoint(0, 0), 0);
    fdb::FieldIo io(client, fdb::FieldIoConfig{}, 0);
    bool all_ok = true;
    auto body = [&]() -> sim::Task<void> {
      (co_await io.init()).expect_ok("init");
      std::vector<std::uint8_t> payload(static_cast<std::size_t>(64_KiB));
      std::vector<std::uint8_t> buf(static_cast<std::size_t>(64_KiB));
      for (int i = 0; i < 20; ++i) {
        fdb::FieldKey key;
        key.set("class", "od").set("date", "20201224").set("step", std::to_string(i));
        fill_field_payload(payload.data(), 0, 64_KiB, key.canonical());
        all_ok &= (co_await io.write(key, payload.data(), 64_KiB)).is_ok();
        auto n = co_await io.read(key, buf.data(), 64_KiB);
        all_ok &= n.is_ok() && n.value() == 64_KiB &&
                  verify_field_payload(buf.data(), 0, 64_KiB, key.canonical());
      }
    };
    sched.spawn(body());
    sched.run();

    EXPECT_TRUE(all_ok) << "retry policy failed to absorb the injected faults";
    EXPECT_GT(io.stats().retries, 0u);
    EXPECT_EQ(client.stats().op_retries, io.stats().retries);  // note_retry plumbing
    EXPECT_GT(client.stats().transient_errors + client.stats().rpc_timeouts, 0u);
    ASSERT_NE(cluster.fault_plan(), nullptr);
    const fault::FaultStats& fs = cluster.fault_plan()->stats();
    EXPECT_GT(fs.rpc_drops + fs.transient_errors, 0u);
  }

  // The same profile through the benchmark: retries land in the op log.
  {
    sim::Scheduler sched;
    daos::Cluster cluster(sched, cfg);
    FieldBenchParams params;
    params.ops_per_process = 8;
    params.processes_per_node = 4;
    params.verify_payload = true;
    params.log_detail_capacity = 256;
    const FieldBenchResult result = run_field_pattern(cluster, params, 'A');
    ASSERT_FALSE(result.failed) << result.failure;
    EXPECT_GT(result.write_log.total_retries() + result.read_log.total_retries(), 0u);
  }
}

// ---- fault-plan unit properties ---------------------------------------------

fault::FaultSpec window_heavy_spec(std::uint64_t seed) {
  fault::FaultSpec spec;
  spec.seed = seed;
  spec.horizon = sim::seconds(2.0);
  spec.target_slowdowns_per_target = 2.0;
  spec.target_outages_per_target = 2.0;
  spec.degradations_per_link = 1.0;
  return spec;
}

std::uint64_t windows_fingerprint(const fault::FaultPlan& plan) {
  std::uint64_t h = 0x77ull;
  for (const fault::TargetWindow& w : plan.target_windows()) {
    h = fp(h, w.target);
    h = fp(h, static_cast<std::uint64_t>(w.start));
    h = fp(h, static_cast<std::uint64_t>(w.end));
    h = fp(h, w.factor);
    h = fp(h, static_cast<std::uint64_t>(w.outage));
  }
  for (const fault::LinkWindow& w : plan.link_windows()) {
    h = fp(h, static_cast<std::uint64_t>(w.link));
    h = fp(h, static_cast<std::uint64_t>(w.start));
    h = fp(h, static_cast<std::uint64_t>(w.end));
    h = fp(h, w.factor);
  }
  return h;
}

TEST(FaultPlanTest, WindowScheduleIsAFunctionOfTheSeed) {
  auto build = [](std::uint64_t seed) {
    daos::ClusterConfig cfg = testbed_config(1, 1);
    cfg.fault_spec = window_heavy_spec(seed);
    sim::Scheduler sched;
    daos::Cluster cluster(sched, cfg);
    EXPECT_NE(cluster.fault_plan(), nullptr);
    EXPECT_TRUE(cluster.fault_plan()->armed());
    return windows_fingerprint(*cluster.fault_plan());
  };
  EXPECT_EQ(build(7), build(7));
  EXPECT_NE(build(7), build(8));
}

TEST(FaultPlanTest, OutageWindowRejectsOnlyInside) {
  sim::Scheduler sched;
  net::FlowScheduler flows(sched);
  std::vector<fault::TargetLinks> targets;
  for (int t = 0; t < 4; ++t) {
    fault::TargetLinks links;
    links.write_link = flows.add_link(net::Link{"w" + std::to_string(t), 1e9, {}, 1.0});
    links.read_link = flows.add_link(net::Link{"r" + std::to_string(t), 1e9, {}, 1.0});
    targets.push_back(links);
  }
  fault::FaultPlan plan(window_heavy_spec(5));
  plan.arm(sched, flows, targets, {});
  const fault::TargetWindow* outage = nullptr;
  for (const fault::TargetWindow& w : plan.target_windows()) {
    if (w.outage) outage = &w;
  }
  ASSERT_NE(outage, nullptr) << "spec with 2 expected outages per target produced none";
  const sim::TimePoint mid = outage->start + (outage->end - outage->start) / 2;
  // target_down is a pure query: probing it (even repeatedly) must not move
  // the rejection counter — only an explicit note_rejection() does.
  EXPECT_TRUE(plan.target_down(outage->target, mid));
  EXPECT_TRUE(plan.target_down(outage->target, mid));
  EXPECT_EQ(plan.stats().outage_rejections, 0u);
  plan.note_rejection();
  EXPECT_EQ(plan.stats().outage_rejections, 1u);
  EXPECT_FALSE(plan.target_down(outage->target, outage->end + sim::milliseconds(1.0)));
  EXPECT_EQ(plan.stats().outage_rejections, 1u);  // misses are not counted
}

TEST(FaultPlanTest, OverlappingOutageWindowsAreMerged) {
  // A spec dense enough that per-target outage windows routinely overlap.
  // Before interval merging, overlapping windows restored target capacity
  // twice (double-scaling it upward); generation must yield disjoint,
  // start-sorted windows per target under any seed.
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    fault::FaultSpec spec;
    spec.seed = seed;
    spec.horizon = sim::seconds(1.0);
    spec.target_outages_per_target = 12.0;
    spec.window_min = sim::milliseconds(40.0);
    spec.window_max = sim::milliseconds(120.0);
    fault::FaultPlan plan(spec);
    sim::Scheduler sched;
    net::FlowScheduler flows(sched);
    std::vector<fault::TargetLinks> targets;
    for (int t = 0; t < 3; ++t) {
      fault::TargetLinks links;
      links.write_link =
          flows.add_link(net::Link{"w" + std::to_string(t), 1e9, {}, 1.0});
      links.read_link =
          flows.add_link(net::Link{"r" + std::to_string(t), 1e9, {}, 1.0});
      targets.push_back(links);
    }
    plan.arm(sched, flows, targets, {});
    std::map<std::size_t, sim::TimePoint> last_end;
    for (const fault::TargetWindow& w : plan.target_windows()) {
      ASSERT_LT(w.start, w.end);
      const auto it = last_end.find(w.target);
      if (it != last_end.end()) {
        EXPECT_GT(w.start, it->second)
            << "seed " << seed << ": overlapping windows on target " << w.target;
      }
      last_end[w.target] = std::max(it == last_end.end() ? w.end : it->second, w.end);
    }
    sched.run();
  }
}

TEST(FaultPlanTest, DefaultSpecInjectsNothing) {
  const fault::FaultSpec spec;
  EXPECT_FALSE(spec.any());
  daos::ClusterConfig cfg = testbed_config(1, 1);
  sim::Scheduler sched;
  daos::Cluster cluster(sched, cfg);
  EXPECT_EQ(cluster.fault_plan(), nullptr);  // zero overhead when disabled
}

// ---- the checker itself -----------------------------------------------------

TEST(SimCheckerTest, FlagsTruncatedDetailAndPassesConsistentLog) {
  IoLog full_log(16);
  full_log.record(0, 0, 0, sim::seconds(0.0), sim::seconds(1.0), 1024, 2);
  full_log.record(0, 1, 0, sim::seconds(0.5), sim::seconds(2.0), 1024, 0);
  fault::SimChecker ok_checker;
  ok_checker.check_log(full_log, sim::seconds(3.0), "full");
  EXPECT_TRUE(ok_checker.ok()) << ok_checker.violations().front();

  IoLog truncated(1);  // capacity below op count: Eq. recomputation impossible
  truncated.record(0, 0, 0, sim::seconds(0.0), sim::seconds(1.0), 1024);
  truncated.record(0, 1, 0, sim::seconds(0.5), sim::seconds(2.0), 1024);
  fault::SimChecker bad_checker;
  bad_checker.check_log(truncated, sim::seconds(3.0), "truncated");
  EXPECT_FALSE(bad_checker.ok());
}

}  // namespace
}  // namespace nws::bench
