// Tests for the product-generation serving tier: single-flight cache,
// admission fairness, discovery, and write/read contention determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "daos/cluster.h"
#include "fault/fault_plan.h"
#include "harness/experiment.h"
#include "ioserver/ioserver.h"
#include "pgen/admission.h"
#include "pgen/field_cache.h"
#include "pgen/serving.h"

namespace nws::pgen {
namespace {

using nws::operator""_KiB;
using nws::operator""_MiB;

// --- FieldCache units -------------------------------------------------------

struct CacheFixture {
  sim::Scheduler sched;
  FieldCache cache;
  std::uint64_t fetches = 0;

  explicit CacheFixture(CacheConfig cfg) : cache(sched, cfg) {}

  /// A fetcher that costs 1ms of simulated time and returns `size`.
  FieldCache::Fetcher fetcher(Bytes size) {
    return [this, size]() -> sim::Task<Result<Bytes>> {
      ++fetches;
      co_await sched.delay(sim::milliseconds(1.0));
      co_return Result<Bytes>(size);
    };
  }
};

sim::Task<void> get_expect(CacheFixture& fx, std::string key, Bytes size,
                           FieldCache::Source expected) {
  const FieldCache::Outcome outcome =
      co_await fx.cache.get_or_fetch(key, fx.fetcher(size));
  EXPECT_TRUE(outcome.status.is_ok());
  EXPECT_EQ(outcome.size, size);
  EXPECT_EQ(outcome.source, expected);
}

TEST(FieldCacheTest, SingleFlightCoalescesConcurrentReaders) {
  CacheFixture fx({});
  // Five concurrent requests for one key: one leads, four coalesce.
  fx.sched.spawn(get_expect(fx, "k", 1_MiB, FieldCache::Source::fetched));
  for (int i = 0; i < 4; ++i) {
    fx.sched.spawn(get_expect(fx, "k", 1_MiB, FieldCache::Source::coalesced));
  }
  fx.sched.run();
  EXPECT_EQ(fx.fetches, 1u);
  EXPECT_EQ(fx.cache.stats().misses, 1u);
  EXPECT_EQ(fx.cache.stats().coalesced, 4u);
  EXPECT_EQ(fx.cache.stats().hits, 0u);
  EXPECT_EQ(fx.cache.in_flight(), 0u);

  // The field is now resident: a later request is a hit, no new fetch.
  fx.sched.spawn(get_expect(fx, "k", 1_MiB, FieldCache::Source::hit));
  fx.sched.run();
  EXPECT_EQ(fx.fetches, 1u);
  EXPECT_EQ(fx.cache.stats().hits, 1u);
}

TEST(FieldCacheTest, LeaderFailureReachesCoalescedWaiters) {
  CacheFixture fx({});
  std::uint64_t failures = 0;
  auto failing = [&fx]() -> sim::Task<Result<Bytes>> {
    ++fx.fetches;
    co_await fx.sched.delay(sim::milliseconds(1.0));
    co_return Result<Bytes>(Status::error(Errc::io_error, "injected"));
  };
  auto get_fail = [&fx, &failures, &failing]() -> sim::Task<void> {
    const FieldCache::Outcome outcome = co_await fx.cache.get_or_fetch("k", failing);
    EXPECT_EQ(outcome.status.code(), Errc::io_error);
    ++failures;
  };
  fx.sched.spawn(get_fail());
  fx.sched.spawn(get_fail());
  fx.sched.run();
  EXPECT_EQ(fx.fetches, 1u);
  EXPECT_EQ(failures, 2u);
  // A failed fetch is not cached: the next request fetches again.
  EXPECT_FALSE(fx.cache.resident("k"));
  fx.sched.spawn(get_expect(fx, "k", 1_MiB, FieldCache::Source::fetched));
  fx.sched.run();
  EXPECT_EQ(fx.fetches, 2u);
}

TEST(FieldCacheTest, LruEvictsLeastRecentlyUsed) {
  CacheConfig cfg;
  cfg.policy = EvictionPolicy::lru;
  cfg.capacity_fields = 2;
  CacheFixture fx(cfg);
  fx.sched.spawn([](CacheFixture& f) -> sim::Task<void> {
    co_await f.cache.get_or_fetch("a", f.fetcher(1_MiB));
    co_await f.cache.get_or_fetch("b", f.fetcher(1_MiB));
    co_await f.cache.get_or_fetch("a", f.fetcher(1_MiB));  // touch: a is now MRU
    co_await f.cache.get_or_fetch("c", f.fetcher(1_MiB));  // evicts b, not a
  }(fx));
  fx.sched.run();
  EXPECT_TRUE(fx.cache.resident("a"));
  EXPECT_FALSE(fx.cache.resident("b"));
  EXPECT_TRUE(fx.cache.resident("c"));
  EXPECT_EQ(fx.cache.stats().evictions, 1u);
  EXPECT_EQ(fx.cache.stats().hits, 1u);
  EXPECT_EQ(fx.cache.stats().bytes_evicted, 1_MiB);
}

TEST(FieldCacheTest, SizeAwareEvictionRespectsByteBudget) {
  CacheConfig cfg;
  cfg.policy = EvictionPolicy::size_lru;
  cfg.capacity_bytes = 3_MiB;
  CacheFixture fx(cfg);
  fx.sched.spawn([](CacheFixture& f) -> sim::Task<void> {
    co_await f.cache.get_or_fetch("a", f.fetcher(2_MiB));
    co_await f.cache.get_or_fetch("b", f.fetcher(2_MiB));  // 4 MiB > budget: evicts a
    co_await f.cache.get_or_fetch("huge", f.fetcher(4_MiB));  // larger than budget: bypass
  }(fx));
  fx.sched.run();
  EXPECT_FALSE(fx.cache.resident("a"));
  EXPECT_TRUE(fx.cache.resident("b"));
  EXPECT_FALSE(fx.cache.resident("huge"));  // never admitted
  EXPECT_EQ(fx.cache.stats().resident_bytes, 2_MiB);
  EXPECT_LE(fx.cache.stats().peak_resident_bytes, cfg.capacity_bytes);
  EXPECT_EQ(fx.cache.stats().evictions, 1u);
}

TEST(FieldCacheTest, ZeroCapacityStillCoalesces) {
  CacheConfig cfg;
  cfg.capacity_fields = 0;  // residency off
  CacheFixture fx(cfg);
  fx.sched.spawn(get_expect(fx, "k", 1_MiB, FieldCache::Source::fetched));
  fx.sched.spawn(get_expect(fx, "k", 1_MiB, FieldCache::Source::coalesced));
  fx.sched.run();
  EXPECT_EQ(fx.fetches, 1u);
  EXPECT_EQ(fx.cache.resident_fields(), 0u);

  // Not resident, so the next request fetches again.
  fx.sched.spawn(get_expect(fx, "k", 1_MiB, FieldCache::Source::fetched));
  fx.sched.run();
  EXPECT_EQ(fx.fetches, 2u);
}

// --- AdmissionController units ---------------------------------------------

TEST(AdmissionTest, BudgetBoundsInFlightAndRoundRobinIsFair) {
  sim::Scheduler sched;
  AdmissionController admission(sched, AdmissionConfig{1}, 3);
  std::size_t peak_in_flight = 0;
  constexpr int kRounds = 5;
  auto worker = [&](std::size_t idx) -> sim::Task<void> {
    for (int round = 0; round < kRounds; ++round) {
      co_await admission.acquire(idx);
      peak_in_flight = std::max(peak_in_flight, admission.in_flight());
      co_await sched.delay(sim::milliseconds(1.0));
      admission.release();
    }
  };
  for (std::size_t idx = 0; idx < 3; ++idx) sched.spawn(worker(idx));
  sched.run();
  EXPECT_EQ(peak_in_flight, 1u);  // hard budget, even with direct handoff
  EXPECT_EQ(admission.in_flight(), 0u);
  EXPECT_EQ(admission.queued_now(), 0u);
  // Every consumer completed all rounds: no starvation under 3x overload.
  EXPECT_EQ(admission.admitted_per_consumer(),
            (std::vector<std::uint64_t>{kRounds, kRounds, kRounds}));
  EXPECT_GT(admission.stats().queued, 0u);
  EXPECT_EQ(admission.stats().peak_queued, 2u);
  EXPECT_FALSE(admission.stats().wait_seconds.empty());
}

TEST(AdmissionTest, ZeroBudgetMeansUnlimited) {
  sim::Scheduler sched;
  AdmissionController admission(sched, AdmissionConfig{0}, 4);
  auto worker = [&](std::size_t idx) -> sim::Task<void> {
    co_await admission.acquire(idx);
    co_await sched.delay(sim::milliseconds(1.0));
    admission.release();
  };
  for (std::size_t idx = 0; idx < 4; ++idx) sched.spawn(worker(idx));
  sched.run();
  EXPECT_EQ(admission.stats().admitted, 4u);
  EXPECT_EQ(admission.stats().queued, 0u);
}

// --- Serving-tier integration ----------------------------------------------

daos::ClusterConfig small_cluster(std::size_t client_nodes = 1) {
  daos::ClusterConfig cfg;
  cfg.server_nodes = 1;
  cfg.client_nodes = client_nodes;
  cfg.payload_mode = daos::PayloadMode::digest;
  return cfg;
}

ioserver::PipelineConfig small_pipeline() {
  ioserver::PipelineConfig cfg;
  cfg.model_processes = 8;
  cfg.io_servers = 2;
  cfg.steps = 2;
  cfg.fields_per_step = 4;
  cfg.field_size = 256_KiB;
  return cfg;
}

TEST(ServingTest, HotFieldIsReadFromDaosExactlyOnce) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, small_cluster());
  ioserver::PipelineConfig write = small_pipeline();
  write.steps = 1;
  write.fields_per_step = 1;
  ServingConfig serve;
  serve.consumers = 4;
  const ContentionResult result = run_write_read_contention(cluster, write, serve);
  ASSERT_FALSE(result.pipeline.failed) << result.pipeline.failure;
  ASSERT_FALSE(result.serving.failed) << result.serving.failure;
  // Four consumers requested the one hot field; single-flight plus residency
  // mean exactly one DAOS array read happened.
  EXPECT_EQ(result.serving.fields_served, 4u);
  EXPECT_EQ(result.serving.read_log.operations(), 1u);
  EXPECT_EQ(result.serving.cache.misses, 1u);
  EXPECT_EQ(result.serving.cache.hits + result.serving.cache.coalesced, 3u);
  EXPECT_EQ(result.serving.bytes_served, 4u * write.field_size);
}

TEST(ServingTest, FleetServesEveryFieldToEveryConsumer) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, small_cluster(2));
  const ioserver::PipelineConfig write = small_pipeline();
  ServingConfig serve;
  serve.consumers = 6;
  const ContentionResult result = run_write_read_contention(cluster, write, serve);
  ASSERT_FALSE(result.pipeline.failed) << result.pipeline.failure;
  ASSERT_FALSE(result.serving.failed) << result.serving.failure;
  const std::uint64_t total_fields =
      static_cast<std::uint64_t>(write.steps) * write.fields_per_step;
  EXPECT_EQ(result.serving.fields_served, serve.consumers * total_fields);
  ASSERT_EQ(result.serving.reads_per_consumer.size(), serve.consumers);
  for (const std::uint64_t reads : result.serving.reads_per_consumer) {
    EXPECT_EQ(reads, total_fields);
  }
  // Two client nodes, each with its own cache: at most one DAOS read per
  // field per node.
  EXPECT_LE(result.serving.read_log.operations(), 2 * total_fields);
  EXPECT_GT(result.serving.cache.hits + result.serving.cache.coalesced, 0u);
  EXPECT_GT(result.serving.notified_fields, 0u);
}

TEST(ServingTest, PollingOnlyDiscoveryServesEverything) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, small_cluster());
  const ioserver::PipelineConfig write = small_pipeline();
  ServingConfig serve;
  serve.consumers = 3;
  serve.use_notifications = false;
  serve.poll_interval = sim::milliseconds(0.5);
  const ContentionResult result = run_write_read_contention(cluster, write, serve);
  ASSERT_FALSE(result.pipeline.failed) << result.pipeline.failure;
  ASSERT_FALSE(result.serving.failed) << result.serving.failure;
  const std::uint64_t total_fields =
      static_cast<std::uint64_t>(write.steps) * write.fields_per_step;
  EXPECT_EQ(result.serving.fields_served, serve.consumers * total_fields);
  EXPECT_GT(result.serving.polls, 0u);
  EXPECT_EQ(result.serving.notified_fields, 0u);
}

TEST(ServingTest, AdmissionBudgetIsFairAcrossConsumers) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, small_cluster());
  ioserver::PipelineConfig write = small_pipeline();
  ServingConfig serve;
  serve.consumers = 8;
  serve.admission.max_in_flight = 1;
  serve.cache.capacity_fields = 0;  // every request goes to DAOS: overload
  const ContentionResult result = run_write_read_contention(cluster, write, serve);
  ASSERT_FALSE(result.serving.failed) << result.serving.failure;
  // Every DAOS read passed through admission (coalesced requests never
  // consume a slot — they wait on the in-flight fetch, not the budget).
  EXPECT_EQ(result.serving.admission.admitted, result.serving.cache.misses);
  // Zero-capacity cache still coalesces concurrent requests, so per-consumer
  // admission counts need not be exactly equal — but nobody may starve.
  std::uint64_t served_min = result.serving.reads_per_consumer[0];
  std::uint64_t served_max = served_min;
  for (const std::uint64_t reads : result.serving.reads_per_consumer) {
    served_min = std::min(served_min, reads);
    served_max = std::max(served_max, reads);
  }
  const std::uint64_t total_fields =
      static_cast<std::uint64_t>(write.steps) * write.fields_per_step;
  EXPECT_EQ(served_min, total_fields);
  EXPECT_EQ(served_max, total_fields);
}

TEST(ServingTest, ConsumersSurviveInjectedFaults) {
  daos::ClusterConfig cfg = small_cluster();
  cfg.fault_spec = fault::FaultSpec::default_chaos(7);
  sim::Scheduler sched;
  daos::Cluster cluster(sched, cfg);
  const ioserver::PipelineConfig write = small_pipeline();
  ServingConfig serve;
  serve.consumers = 4;
  const ContentionResult result = run_write_read_contention(cluster, write, serve);
  ASSERT_FALSE(result.pipeline.failed) << result.pipeline.failure;
  ASSERT_FALSE(result.serving.failed) << result.serving.failure;
  const std::uint64_t total_fields =
      static_cast<std::uint64_t>(write.steps) * write.fields_per_step;
  EXPECT_EQ(result.serving.fields_served, serve.consumers * total_fields);
  EXPECT_GT(result.pipeline.client_stats.op_retries + result.serving.client_stats.op_retries, 0u);
}

TEST(ServingTest, EmptyFleetFinishesImmediately) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, small_cluster());
  const ioserver::PipelineConfig write = small_pipeline();
  ServingConfig serve;
  serve.consumers = 0;  // the bench's write-only baseline
  const ContentionResult result = run_write_read_contention(cluster, write, serve);
  ASSERT_FALSE(result.pipeline.failed) << result.pipeline.failure;
  ASSERT_FALSE(result.serving.failed) << result.serving.failure;
  EXPECT_EQ(result.serving.fields_served, 0u);
  EXPECT_EQ(result.pipeline.fields_stored,
            static_cast<std::uint64_t>(write.steps) * write.fields_per_step);
}

TEST(ServingTest, NoIndexWithoutNotificationsIsRejected) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, small_cluster());
  ioserver::PipelineConfig write = small_pipeline();
  write.mode = fdb::Mode::no_index;
  ServingConfig serve;
  serve.field_io.mode = fdb::Mode::no_index;
  serve.use_notifications = false;
  const ContentionResult result = run_write_read_contention(cluster, write, serve);
  EXPECT_TRUE(result.serving.failed);
  EXPECT_FALSE(result.pipeline.failed) << result.pipeline.failure;  // still drained
}

TEST(ServingTest, NoIndexModeServesViaNotifications) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, small_cluster());
  ioserver::PipelineConfig write = small_pipeline();
  write.mode = fdb::Mode::no_index;
  ServingConfig serve;
  serve.consumers = 2;
  serve.field_io.mode = fdb::Mode::no_index;
  const ContentionResult result = run_write_read_contention(cluster, write, serve);
  ASSERT_FALSE(result.pipeline.failed) << result.pipeline.failure;
  ASSERT_FALSE(result.serving.failed) << result.serving.failure;
  const std::uint64_t total_fields =
      static_cast<std::uint64_t>(write.steps) * write.fields_per_step;
  EXPECT_EQ(result.serving.fields_served, serve.consumers * total_fields);
  EXPECT_EQ(result.serving.polls, 0u);  // no catalogue to poll in this mode
}

TEST(ServingTest, SnapshotReadsServeEveryPublishedField) {
  const auto run = [] {
    sim::Scheduler sched;
    daos::Cluster cluster(sched, small_cluster(2));
    ServingConfig serve;
    serve.consumers = 6;
    serve.snapshot_reads = true;
    return run_write_read_contention(cluster, small_pipeline(), serve);
  };
  const ContentionResult first = run();
  ASSERT_FALSE(first.pipeline.failed) << first.pipeline.failure;
  ASSERT_FALSE(first.serving.failed) << first.serving.failure;
  const ioserver::PipelineConfig write = small_pipeline();
  const std::uint64_t total_fields =
      static_cast<std::uint64_t>(write.steps) * write.fields_per_step;
  ASSERT_EQ(first.serving.reads_per_consumer.size(), 6u);
  for (const std::uint64_t reads : first.serving.reads_per_consumer) {
    EXPECT_EQ(reads, total_fields);
  }
  EXPECT_EQ(first.serving.steps_published, write.steps);
  EXPECT_GT(first.serving.snapshot_reads, 0u);
  EXPECT_EQ(first.serving.snapshot_reads + first.serving.snapshot_fallbacks,
            first.serving.read_log.operations());

  const ContentionResult second = run();
  EXPECT_EQ(first.makespan, second.makespan);
  EXPECT_EQ(first.pipeline.store_log.op_latencies().samples(),
            second.pipeline.store_log.op_latencies().samples());
  EXPECT_EQ(first.serving.read_log.op_latencies().samples(),
            second.serving.read_log.op_latencies().samples());
  EXPECT_TRUE(serving_metrics(first.serving) == serving_metrics(second.serving));
}

TEST(ServingTest, MetricsSnapshotCarriesServingCounters) {
  const bench::RunOutcome outcome =
      run_contention_once(small_cluster(), small_pipeline(), ServingConfig{}, 42);
  ASSERT_FALSE(outcome.failed) << outcome.failure;
  EXPECT_GT(outcome.write_bw, 0.0);
  EXPECT_GT(outcome.read_bw, 0.0);
  EXPECT_TRUE(outcome.metrics.has("pgen.fields_served"));
  EXPECT_TRUE(outcome.metrics.has("cache.hits"));
  EXPECT_TRUE(outcome.metrics.has("cache.coalesced"));
  EXPECT_TRUE(outcome.metrics.has("admission.admitted"));
  EXPECT_EQ(outcome.metrics.value("pgen.fields_served"),
            static_cast<double>(8u * small_pipeline().steps * small_pipeline().fields_per_step));
}

TEST(ServingTest, RepetitionsAreBitIdenticalAtAnyJobCount) {
  const auto run = [](std::uint64_t seed) {
    ioserver::PipelineConfig write = small_pipeline();
    ServingConfig serve;
    serve.consumers = 4;
    serve.admission.max_in_flight = 2;
    return run_contention_once(small_cluster(2), write, serve, seed);
  };
  const bench::RepetitionSummary serial = bench::repeat(4, 99, run, 1);
  const bench::RepetitionSummary pooled = bench::repeat(4, 99, run, 3);
  ASSERT_FALSE(serial.any_failed) << serial.failure;
  ASSERT_FALSE(pooled.any_failed) << pooled.failure;
  EXPECT_EQ(serial.write.samples(), pooled.write.samples());
  EXPECT_EQ(serial.read.samples(), pooled.read.samples());
  EXPECT_TRUE(serial.metrics == pooled.metrics);
}

}  // namespace
}  // namespace nws::pgen
