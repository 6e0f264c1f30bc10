// Tests for the conservative time-window partitioning stack: the
// partitioned scheduler's window protocol, send-time promises and
// cross-partition delivery order, the campaign's lookahead (its provider's
// message latency), the --jobs determinism gate over a registry of
// scenarios run through the harness's own runners, and the campaign's
// speed on 4 workers against 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "fault/fault_plan.h"
#include "harness/partitioned_bench.h"
#include "harness/run_pool.h"
#include "net/topology.h"
#include "obs/report.h"
#include "sim/partition.h"
#include "sim/sync.h"

namespace nws::sim {
namespace {

Task<void> delayed_post(PartitionedScheduler& psched, std::size_t from, std::size_t to,
                        Duration wait, Duration latency, TimePoint* delivered_at) {
  Scheduler& sched = psched.partition(from);
  co_await sched.delay(wait);
  Scheduler* dst = &psched.partition(to);
  psched.post(from, to, sched.now() + latency, [dst, delivered_at] { *delivered_at = dst->now(); });
}

TEST(PartitionedSchedulerTest, CrossEventDeliveredAtItsTimestamp) {
  PartitionConfig cfg;
  cfg.partitions = 2;
  cfg.lookahead = microseconds(10);
  PartitionedScheduler psched(cfg);
  TimePoint delivered_at = -1;
  psched.partition(0).spawn(
      delayed_post(psched, 0, 1, milliseconds(1), microseconds(10), &delivered_at));
  psched.run();
  EXPECT_EQ(delivered_at, milliseconds(1) + microseconds(10));
  EXPECT_EQ(psched.stats().cross_events, 1u);
  EXPECT_GT(psched.stats().windows, 0u);
}

TEST(PartitionedSchedulerTest, PostValidation) {
  PartitionConfig cfg;
  cfg.partitions = 2;
  cfg.lookahead = microseconds(1);
  PartitionedScheduler psched(cfg);
  EXPECT_THROW(psched.post(0, 0, 10, [] {}), std::logic_error);
  EXPECT_THROW(psched.post(0, 7, 10, [] {}), std::out_of_range);
  // Before run() no window is open, so even a post to a peer throws.
  EXPECT_THROW(psched.post(0, 1, 10, [] {}), std::logic_error);
  PartitionConfig bad;
  bad.partitions = 0;
  EXPECT_THROW(PartitionedScheduler{bad}, std::invalid_argument);
}

TEST(PartitionedSchedulerTest, LookaheadViolationThrows) {
  PartitionConfig cfg;
  cfg.partitions = 2;
  cfg.lookahead = microseconds(10);
  PartitionedScheduler psched(cfg);
  // Posting at `now` from inside a window lands below the horizon W + L —
  // the protocol must reject it rather than silently break causality.
  TimePoint unused = 0;
  psched.partition(0).spawn(delayed_post(psched, 0, 1, microseconds(5), 0, &unused));
  EXPECT_THROW(psched.run(), std::logic_error);
}

/// More than one partition without a positive lookahead admits no safe
/// window, so the scheduler refuses it; one partition has no cross traffic
/// and runs without one.
TEST(PartitionedSchedulerTest, ZeroLookaheadNeedsOnePartition) {
  PartitionConfig cfg;
  cfg.partitions = 2;
  cfg.lookahead = 0;
  EXPECT_THROW(PartitionedScheduler{cfg}, std::invalid_argument);
  cfg.lookahead = -microseconds(1);
  EXPECT_THROW(PartitionedScheduler{cfg}, std::invalid_argument);
  cfg.partitions = 1;
  cfg.lookahead = 0;
  PartitionedScheduler psched(cfg);
  TimePoint ran_at = -1;
  Scheduler& sched = psched.partition(0);
  sched.schedule_callback(microseconds(5), [&sched, &ran_at] { ran_at = sched.now(); });
  psched.run();
  EXPECT_EQ(ran_at, microseconds(5));
  EXPECT_EQ(psched.stats().windows, 0u);
  EXPECT_EQ(psched.stats().events_executed, 1u);
}

Task<void> wait_forever(Scheduler& sched, Gate& gate) {
  co_await sched.delay(microseconds(1));
  co_await gate.wait();
}

TEST(PartitionedSchedulerTest, DeadlockInOnePartitionPropagates) {
  PartitionConfig cfg;
  cfg.partitions = 2;
  cfg.lookahead = microseconds(10);
  PartitionedScheduler psched(cfg);
  Gate gate(psched.partition(0));
  psched.partition(0).spawn(wait_forever(psched.partition(0), gate));
  TimePoint unused = 0;
  psched.partition(1).spawn(
      delayed_post(psched, 1, 0, microseconds(5), microseconds(10), &unused));
  EXPECT_THROW(psched.run(), DeadlockError);
}

Task<void> digest_proc(PartitionedScheduler& psched, std::size_t self, std::uint64_t* digest,
                       std::vector<std::uint64_t>* inbox_counts) {
  Scheduler& sched = psched.partition(self);
  std::uint64_t state = 0x9e3779b97f4a7c15ull * (self + 1);
  for (int i = 0; i < 100; ++i) {
    co_await sched.delay(microseconds(3 + (state % 7)));
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    *digest ^= state + static_cast<std::uint64_t>(sched.now());
    if (i % 10 == 0) {
      const std::size_t peer = (self + 1) % psched.partitions();
      std::uint64_t* count = &(*inbox_counts)[peer];
      psched.post(self, peer, sched.now() + microseconds(10), [count] { ++(*count); });
    }
  }
}

/// The core guarantee: worker count maps partitions to threads and nothing
/// else.  Window structure, cross traffic and per-partition state must be
/// identical at every worker count (including 1, the reference).
TEST(PartitionedSchedulerTest, WorkerCountDoesNotChangeResults) {
  struct Result {
    std::vector<std::uint64_t> digests;
    std::vector<std::uint64_t> inbox;
    std::uint64_t windows, cross_events;
  };
  const auto run_at = [](std::size_t workers) {
    PartitionConfig cfg;
    cfg.partitions = 4;
    cfg.lookahead = microseconds(10);
    cfg.workers = workers;
    PartitionedScheduler psched(cfg);
    Result r;
    r.digests.assign(4, 0);
    r.inbox.assign(4, 0);
    for (std::size_t p = 0; p < 4; ++p) {
      psched.partition(p).spawn(digest_proc(psched, p, &r.digests[p], &r.inbox));
    }
    psched.run();
    r.windows = psched.stats().windows;
    r.cross_events = psched.stats().cross_events;
    return r;
  };
  const Result serial = run_at(1);
  EXPECT_GT(serial.cross_events, 0u);
  for (const std::size_t workers : {2u, 4u, 8u}) {
    const Result parallel = run_at(workers);
    EXPECT_EQ(parallel.digests, serial.digests) << "workers=" << workers;
    EXPECT_EQ(parallel.inbox, serial.inbox) << "workers=" << workers;
    EXPECT_EQ(parallel.windows, serial.windows) << "workers=" << workers;
    EXPECT_EQ(parallel.cross_events, serial.cross_events) << "workers=" << workers;
  }
}

Task<void> post_burst(PartitionedScheduler& psched, std::size_t self, std::size_t count,
                      std::vector<std::pair<std::size_t, std::size_t>>* delivered) {
  Scheduler& sched = psched.partition(self);
  co_await sched.delay(milliseconds(1));
  const TimePoint t = sched.now() + microseconds(10);
  for (std::size_t i = 0; i < count; ++i) {
    psched.post(self, 0, t, [delivered, self, i] { delivered->emplace_back(self, i); });
  }
}

/// Two sources post more same-timestamp events to one destination inside a
/// single window than a fixed-size ring would hold.  The destination runs
/// them in canonical order — every event of the lower source first, each
/// source in send order — whatever the worker count.
TEST(PartitionedSchedulerTest, CrossEventsKeepCanonicalOrder) {
  constexpr std::size_t kPerSource = 5000;
  const auto run_at = [](std::size_t workers) {
    PartitionConfig cfg;
    cfg.partitions = 3;
    cfg.lookahead = microseconds(10);
    cfg.workers = workers;
    PartitionedScheduler psched(cfg);
    std::vector<std::pair<std::size_t, std::size_t>> delivered;
    psched.partition(2).spawn(post_burst(psched, 2, kPerSource, &delivered));
    psched.partition(1).spawn(post_burst(psched, 1, kPerSource, &delivered));
    psched.run();
    EXPECT_EQ(psched.stats().cross_events, 2 * kPerSource) << "workers=" << workers;
    return delivered;
  };
  const auto serial = run_at(1);
  ASSERT_EQ(serial.size(), 2 * kPerSource);
  for (std::size_t k = 0; k < serial.size(); ++k) {
    const std::pair<std::size_t, std::size_t> expect{k < kPerSource ? 1 : 2, k % kPerSource};
    ASSERT_EQ(serial[k], expect) << "delivery " << k;
  }
  EXPECT_EQ(run_at(3), serial);
}

/// Ping-pong between two partitions: every message opens a new window, so
/// the outboxes are drained and refilled once per round.
TEST(PartitionedSchedulerTest, CrossEventsFlowAcrossManyWindows) {
  constexpr std::size_t kRounds = 500;
  struct PingPong {
    PartitionedScheduler* psched;
    std::vector<TimePoint> sent_for;
    std::vector<TimePoint> arrived_at;
    void send(std::size_t from, TimePoint t) {
      const std::size_t to = 1 - from;
      sent_for.push_back(t);
      psched->post(from, to, t, [this, to] {
        const TimePoint now = psched->partition(to).now();
        arrived_at.push_back(now);
        if (arrived_at.size() < kRounds) send(to, now + microseconds(10 + arrived_at.size() % 3));
      });
    }
  };
  for (const std::size_t workers : {1u, 2u}) {
    PartitionConfig cfg;
    cfg.partitions = 2;
    cfg.lookahead = microseconds(10);
    cfg.workers = workers;
    PartitionedScheduler psched(cfg);
    PingPong game{&psched, {}, {}};
    psched.partition(0).schedule_callback(0, [&game] { game.send(0, microseconds(10)); });
    psched.run();
    EXPECT_EQ(game.arrived_at.size(), kRounds) << "workers=" << workers;
    EXPECT_EQ(game.arrived_at, game.sent_for) << "workers=" << workers;
    EXPECT_EQ(psched.stats().cross_events, kRounds) << "workers=" << workers;
    EXPECT_GE(psched.stats().windows, kRounds) << "workers=" << workers;
  }
}

/// Dense local work: ticks every 3-9 µs until `until`, folding each tick's
/// time into `digest`.
Task<void> tick_proc(Scheduler& sched, std::size_t self, TimePoint until, std::uint64_t* digest) {
  std::uint64_t state = 0x9e3779b97f4a7c15ull * (self + 1);
  while (sched.now() < until) {
    co_await sched.delay(microseconds(3 + (state % 7)));
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    *digest ^= state + static_cast<std::uint64_t>(sched.now());
  }
}

/// The partition's one cross-partition sender: posts to the next partition
/// every millisecond, `sends` times.  With `promising` it declares each next
/// send before waiting for it, and "never" after the last.
Task<void> send_proc(PartitionedScheduler& psched, std::size_t self, int sends, bool promising,
                     std::vector<std::vector<TimePoint>>* delivered) {
  Scheduler& sched = psched.partition(self);
  const std::size_t peer = (self + 1) % psched.partitions();
  Scheduler* dst = &psched.partition(peer);
  std::vector<TimePoint>* inbox = &(*delivered)[peer];
  for (int i = 0; i < sends; ++i) {
    if (promising) psched.promise(self, sched.now() + milliseconds(1));
    co_await sched.delay(milliseconds(1));
    psched.post(self, peer, sched.now() + microseconds(10),
                [dst, inbox] { inbox->push_back(dst->now()); });
  }
  if (promising) psched.promise(self, Scheduler::kNoEventTime);
}

/// Promises let a window run from one send to the next instead of one
/// lookahead past the next local event: 20 sends per partition over 50 ms
/// of 3-9 µs ticks take sends + 2 windows instead of thousands, and move no
/// delivery, clock or digest at any worker count.
TEST(PartitionedSchedulerTest, PromisesWidenWindows) {
  constexpr int kSends = 20;
  struct Result {
    std::vector<std::uint64_t> digests;
    std::vector<std::vector<TimePoint>> delivered;
    std::vector<TimePoint> clocks;
    std::uint64_t windows, null_windows, cross_events;
    bool operator==(const Result&) const = default;
  };
  const auto run_at = [](std::size_t workers, bool promising) {
    PartitionConfig cfg;
    cfg.partitions = 4;
    cfg.lookahead = microseconds(10);
    cfg.workers = workers;
    PartitionedScheduler psched(cfg);
    Result r;
    r.digests.assign(4, 0);
    r.delivered.resize(4);
    for (std::size_t p = 0; p < 4; ++p) {
      psched.partition(p).spawn(tick_proc(psched.partition(p), p, milliseconds(50), &r.digests[p]));
      psched.partition(p).spawn(send_proc(psched, p, kSends, promising, &r.delivered));
    }
    psched.run();
    for (std::size_t p = 0; p < 4; ++p) r.clocks.push_back(psched.partition(p).now());
    r.windows = psched.stats().windows;
    r.null_windows = psched.stats().null_windows;
    r.cross_events = psched.stats().cross_events;
    return r;
  };
  const Result promised = run_at(1, true);
  const Result plain = run_at(1, false);
  EXPECT_LE(promised.windows, static_cast<std::uint64_t>(kSends) + 2);
  EXPECT_GE(plain.windows, 100 * promised.windows);
  EXPECT_EQ(promised.cross_events, 4u * kSends);
  for (std::size_t p = 0; p < 4; ++p) {
    ASSERT_EQ(promised.delivered[p].size(), static_cast<std::size_t>(kSends)) << "partition " << p;
    for (int i = 0; i < kSends; ++i) {
      EXPECT_EQ(promised.delivered[p][i], milliseconds(i + 1) + microseconds(10));
    }
  }
  EXPECT_EQ(promised.digests, plain.digests);
  EXPECT_EQ(promised.delivered, plain.delivered);
  EXPECT_EQ(promised.clocks, plain.clocks);
  for (const std::size_t workers : {2u, 4u, 8u}) {
    EXPECT_TRUE(run_at(workers, true) == promised) << "workers=" << workers;
  }
}

/// Runs the scheduler and returns the message of the std::logic_error it
/// throws, or "" when it completes.
std::string run_logic_error(PartitionedScheduler& psched) {
  try {
    psched.run();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

/// A promise is checked where it could be broken: a post below the sender's
/// promise throws even when it clears the window horizon, "never" holds
/// whatever the partition receives, and a promise cannot be lowered.
TEST(PartitionedSchedulerTest, PostBeforePromiseThrows) {
  PartitionConfig cfg;
  cfg.partitions = 2;
  cfg.lookahead = microseconds(10);
  {
    // Posts at 0.5 ms for 5.5 ms, past the 1.01 ms horizon, but partition 0
    // promised nothing before 1 ms.
    PartitionedScheduler psched(cfg);
    psched.promise(0, milliseconds(1));
    TimePoint unused = 0;
    psched.partition(0).spawn(
        delayed_post(psched, 0, 1, microseconds(500), milliseconds(5), &unused));
    EXPECT_NE(run_logic_error(psched).find("promise"), std::string::npos);
  }
  {
    PartitionedScheduler psched(cfg);
    psched.promise(1, Scheduler::kNoEventTime);
    Scheduler* src = &psched.partition(0);
    Scheduler* dst = &psched.partition(1);
    src->schedule_callback(milliseconds(1), [&psched, src, dst] {
      psched.post(0, 1, src->now() + milliseconds(1), [&psched, dst] {
        psched.post(1, 0, dst->now() + milliseconds(1), [] {});
      });
    });
    EXPECT_NE(run_logic_error(psched).find("promise"), std::string::npos);
  }
  {
    PartitionedScheduler psched(cfg);
    psched.promise(0, milliseconds(2));
    EXPECT_NO_THROW(psched.promise(0, milliseconds(2)));
    EXPECT_THROW(psched.promise(0, milliseconds(1)), std::logic_error);
    EXPECT_THROW(psched.promise(2, milliseconds(3)), std::out_of_range);
  }
}

/// When every partition promises never, the horizon saturates instead of
/// overflowing and one window runs every partition to its last event.
TEST(PartitionedSchedulerTest, NeverAgainPromiseRunsToTheEnd) {
  for (const std::size_t workers : {1u, 3u}) {
    PartitionConfig cfg;
    cfg.partitions = 3;
    cfg.lookahead = microseconds(10);
    cfg.workers = workers;
    PartitionedScheduler psched(cfg);
    std::vector<std::uint64_t> digests(3, 0);
    std::vector<TimePoint> last(3, 0);
    for (std::size_t p = 0; p < 3; ++p) {
      Scheduler& sched = psched.partition(p);
      psched.promise(p, Scheduler::kNoEventTime);
      sched.spawn(tick_proc(sched, p, milliseconds(p + 1), &digests[p]));
      // The latest event of the partition: its tick process's end is earlier.
      sched.schedule_callback(milliseconds(p + 2), [&sched, &last, p] { last[p] = sched.now(); });
    }
    psched.run();
    EXPECT_EQ(psched.stats().windows, 1u) << "workers=" << workers;
    EXPECT_EQ(psched.stats().null_windows, 0u) << "workers=" << workers;
    for (std::size_t p = 0; p < 3; ++p) {
      EXPECT_EQ(last[p], milliseconds(p + 2)) << "workers=" << workers;
      EXPECT_EQ(psched.partition(p).now(), last[p]) << "workers=" << workers;
    }
  }
}

}  // namespace
}  // namespace nws::sim

namespace nws::bench {
namespace {

/// Canonical nws-report-v1 serialization of one scenario run: the exact
/// byte string the gate diffs across --jobs values.  Deterministic fields
/// only — bandwidths, counts, the window protocol's counters (`campaign`,
/// partitioned runs only) and the folded metrics.  The wall-clock barrier
/// wait in campaign->stats stays out.
std::string report_json(const std::string& scenario, std::uint64_t seed, const RunOutcome& outcome,
                        const PartitionedOutcome* campaign = nullptr) {
  obs::RunReport report("determinism." + scenario);
  report.set_config({{"scenario", scenario},
                     {"seed", std::to_string(seed)},
                     {"partitioned", campaign != nullptr ? "1" : "0"}});
  const auto count = [&outcome](const char* metric) {
    const double v = outcome.metrics.has(metric) ? outcome.metrics.value(metric) : 0.0;
    return std::to_string(static_cast<std::uint64_t>(v));
  };
  Table table({"field", "value"});
  table.add_row({"failed", outcome.failed ? "1" : "0"});
  table.add_row({"failure", outcome.failure});
  table.add_row({"write_bw_gib_s", strf("%.9f", outcome.write_bw)});
  table.add_row({"read_bw_gib_s", strf("%.9f", outcome.read_bw)});
  table.add_row({"events", count("sim.events_executed")});
  table.add_row({"flows", count("net.flows_completed")});
  if (campaign != nullptr) {
    const sim::PartitionRunStats& stats = campaign->stats;
    table.add_row({"sim_seconds", strf("%.9f", campaign->sim_seconds)});
    table.add_row({"partition.groups", std::to_string(stats.partitions)});
    table.add_row({"partition.windows", std::to_string(stats.windows)});
    table.add_row({"partition.null_windows", std::to_string(stats.null_windows)});
    table.add_row({"partition.cross_events", std::to_string(stats.cross_events)});
  }
  report.add_table("deterministic outcome", table);
  report.merge_metrics(outcome.metrics);
  std::ostringstream os;
  report.write_json(os);
  return os.str();
}

/// One scenario of the gate: a pure function of (seed, jobs) returning its
/// report.  Only partitioned scenarios consume `jobs`, which maps their
/// shards onto worker threads.
struct Scenario {
  std::string name;
  bool partitioned = false;
  std::function<std::string(std::uint64_t seed, std::size_t jobs)> report;
};

FieldBenchParams standard_field_params(fdb::Mode mode, bool shared) {
  FieldBenchParams params;
  params.mode = mode;
  params.shared_forecast_index = shared;
  params.ops_per_process = 20;
  params.processes_per_node = 16;
  return params;
}

/// Full payloads under the seed's default fault plan; every read verified.
daos::ClusterConfig chaos_config(std::uint64_t seed) {
  daos::ClusterConfig cfg = testbed_config(1, 2);
  cfg.payload_mode = daos::PayloadMode::full;
  cfg.fault_spec = fault::FaultSpec::default_chaos(mix64(seed ^ 0xfa017ull));
  return cfg;
}

FieldBenchParams chaos_field_params() {
  FieldBenchParams params;
  params.ops_per_process = 10;
  params.processes_per_node = 8;
  params.verify_payload = true;
  return params;
}

/// IOR, the field patterns at low and high contention, a fault-injected
/// field run, and the two sharded-pool campaigns of "Reducing the Impact of
/// I/O Contention in NWP Workflows at Scale Using DAOS": 4 field shards
/// under the window protocol.
std::vector<Scenario> determinism_scenarios() {
  std::vector<Scenario> out;
  const auto serial = [&out](const std::string& name,
                             std::function<RunOutcome(std::uint64_t seed)> run) {
    out.push_back({name, false, [name, run](std::uint64_t seed, std::size_t) {
                     return report_json(name, seed, run(seed));
                   }});
  };
  const auto partitioned = [&out](const std::string& name,
                                  std::function<daos::ClusterConfig(std::uint64_t seed)> cfg,
                                  const FieldBenchParams& field) {
    out.push_back({name, true, [name, cfg, field](std::uint64_t seed, std::size_t jobs) {
                     PartitionedRunParams params;
                     params.field = field;
                     params.shards = 4;
                     params.jobs = jobs;
                     const PartitionedOutcome campaign =
                         run_field_partitioned(cfg(seed), params, seed);
                     return report_json(name, seed, campaign.outcome, &campaign);
                   }});
  };
  const auto field = [&serial](const std::string& name, fdb::Mode mode, bool shared,
                               char pattern) {
    serial(name, [mode, shared, pattern](std::uint64_t seed) {
      return run_field_once(testbed_config(1, 2), standard_field_params(mode, shared), pattern,
                            seed);
    });
  };

  serial("ior_2s4c_pattern_a", [](std::uint64_t seed) {
    ior::IorParams params;
    params.segments = 50;
    params.processes_per_node = 24;
    return run_ior_once(testbed_config(2, 4), params, seed);
  });
  field("field_full_low_contention_a", fdb::Mode::full, false, 'A');
  field("field_full_high_contention_a", fdb::Mode::full, true, 'A');
  field("field_noindex_high_contention_b", fdb::Mode::no_index, true, 'B');
  serial("field_chaos_profile_a", [](std::uint64_t seed) {
    return run_field_once(chaos_config(seed), chaos_field_params(), 'A', seed);
  });
  partitioned(
      "field_full_partitioned_a", [](std::uint64_t) { return testbed_config(1, 2); },
      standard_field_params(fdb::Mode::full, true));
  partitioned("field_chaos_partitioned_a", chaos_config, chaos_field_params());
  return out;
}

/// The determinism gate: every scenario's canonical nws-report-v1
/// serialization is byte-identical at --jobs 1/2/4/8.  Serial scenarios
/// have no jobs knob, so for them the gate degenerates to repeat-invocation
/// stability (two runs, same bytes), which still catches address- or
/// allocation-order-dependent nondeterminism.
TEST(PartitionDeterminismTest, ReportsBitIdenticalAcrossJobs) {
  for (const Scenario& scenario : determinism_scenarios()) {
    const std::uint64_t seed = 1;
    const std::string reference = scenario.report(seed, 1);
    EXPECT_NE(reference.find("nws-report-v1"), std::string::npos);
    const std::vector<std::size_t> jobs_grid =
        scenario.partitioned ? std::vector<std::size_t>{2, 4, 8} : std::vector<std::size_t>{1};
    for (const std::size_t jobs : jobs_grid) {
      EXPECT_EQ(scenario.report(seed, jobs), reference)
          << scenario.name << " diverged at jobs=" << jobs;
    }
  }
}

TEST(PartitionedBenchTest, StatsAndProtocolCountersSane) {
  PartitionedRunParams params;
  params.field.ops_per_process = 5;
  params.field.processes_per_node = 4;
  params.shards = 4;
  params.jobs = 2;
  const PartitionedOutcome out = run_field_partitioned(testbed_config(1, 2), params, 1);
  ASSERT_FALSE(out.outcome.failed) << out.outcome.failure;
  EXPECT_EQ(out.stats.partitions, 4u);
  // The gossip processes promise their next round, so windows follow the 8
  // rounds, not the lookahead.
  EXPECT_GT(out.stats.windows, 0u);
  EXPECT_LE(out.stats.windows, 2u * 8 + 2);
  EXPECT_GT(out.stats.cross_events, 0u);  // gossip tokens crossed shards
  EXPECT_GT(out.stats.events_executed, 0u);
  // The folded per-shard event counters sum to the protocol's own count.
  EXPECT_EQ(out.outcome.metrics.value("sim.events_executed"),
            static_cast<double>(out.stats.events_executed));
  EXPECT_GT(out.sim_seconds, 0.0);
  EXPECT_GT(out.outcome.write_bw, 0.0);
  EXPECT_TRUE(out.outcome.metrics.has("sim.partition.windows"));
  EXPECT_TRUE(out.outcome.metrics.has("sim.partition.gossip_tokens"));
  // 4 shards, 3 peers each, 8 rounds.
  EXPECT_EQ(out.outcome.metrics.value("sim.partition.gossip_tokens"), 4.0 * 3 * 8);
}

/// The window protocol must pay for its threads: a 4-shard campaign is not
/// slower on 4 workers than on one.  The takes interleave, so a busy
/// stretch of the host hits both sides, and each side keeps its best of
/// three.  The name stays outside the TSan stage's filter, which would time
/// the sanitizer.
TEST(PartitionSpeedTest, FourWorkersNotSlowerThanOne) {
#ifndef NDEBUG
  GTEST_SKIP() << "unoptimised build: wall time says nothing about the window protocol";
#endif
  if (hardware_jobs() < 4) GTEST_SKIP() << "needs at least 4 hardware threads";
  PartitionedRunParams params;
  params.field = standard_field_params(fdb::Mode::full, true);
  params.field.ops_per_process = 50;
  params.shards = 4;
  const auto campaign_seconds = [&params](std::size_t jobs) {
    // NWSLINT(allow:determinism): times the host running the campaign, not simulated time
    using Clock = std::chrono::steady_clock;
    params.jobs = jobs;
    const auto t0 = Clock::now();
    const PartitionedOutcome out = run_field_partitioned(testbed_config(1, 2), params, 1);
    const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    EXPECT_FALSE(out.outcome.failed) << out.outcome.failure;
    return seconds;
  };
  double one = std::numeric_limits<double>::infinity();
  double four = one;
  for (int take = 0; take < 3; ++take) {
    one = std::min(one, campaign_seconds(1));
    four = std::min(four, campaign_seconds(4));
  }
  EXPECT_LE(four, one) << "best campaign on 1 worker " << one << " s, on 4 workers " << four
                       << " s";
}

/// The campaign's lookahead, and the latency of every gossip token, is its
/// provider's message latency: the least the fabric model charges between
/// two distinct nodes (a socket crossing adds to it), and shards own
/// disjoint nodes.
TEST(PartitionedBenchTest, LookaheadIsProviderMessageLatency) {
  for (const char* provider : {"tcp", "psm2"}) {
    const daos::ClusterConfig cfg = testbed_config(1, 2, provider);
    PartitionedRunParams params;
    params.field.ops_per_process = 2;
    params.field.processes_per_node = 2;
    params.shards = 2;
    const PartitionedOutcome out = run_field_partitioned(cfg, params, 1);
    ASSERT_FALSE(out.outcome.failed) << provider << ": " << out.outcome.failure;
    EXPECT_GT(out.lookahead, 0) << provider;
    EXPECT_EQ(out.lookahead, cfg.provider.message_latency) << provider;

    sim::Scheduler sched;
    net::FlowScheduler flows(sched);
    net::TopologyConfig fabric;
    fabric.nodes = 2;
    fabric.provider = cfg.provider;
    const net::Topology topo(flows, fabric);
    sim::Duration least = std::numeric_limits<sim::Duration>::max();
    for (std::size_t sa = 0; sa < net::kSocketsPerNode; ++sa) {
      for (std::size_t sb = 0; sb < net::kSocketsPerNode; ++sb) {
        least = std::min(least, topo.latency(net::Endpoint{0, sa}, net::Endpoint{1, sb}));
      }
    }
    EXPECT_EQ(out.lookahead, least) << provider;
  }
}

/// A provider without message latency leaves a multi-shard campaign no safe
/// window, so it is refused before it runs; a single shard needs no window.
TEST(PartitionedBenchTest, ZeroLatencyProviderIsRejected) {
  daos::ClusterConfig cfg = testbed_config(1, 2);
  cfg.provider.message_latency = 0;
  PartitionedRunParams params;
  params.field.ops_per_process = 3;
  params.field.processes_per_node = 2;
  params.shards = 2;
  params.jobs = 4;
  EXPECT_THROW(run_field_partitioned(cfg, params, 1), std::invalid_argument);
  params.shards = 1;
  const PartitionedOutcome out = run_field_partitioned(cfg, params, 1);
  EXPECT_FALSE(out.outcome.failed) << out.outcome.failure;
  EXPECT_EQ(out.stats.windows, 0u);
}

}  // namespace
}  // namespace nws::bench
