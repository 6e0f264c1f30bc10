// Cross-cutting invariant and stress tests over the whole stack.
#include <gtest/gtest.h>

#include "daos/client.h"
#include "daos/cluster.h"
#include "harness/experiment.h"
#include "sim/when_all.h"

namespace nws {
namespace {

using sim::Task;

TEST(WhenAllTest, RunsChildrenConcurrently) {
  sim::Scheduler sched;
  auto sleeper = [](sim::Scheduler& s, sim::Duration d) -> Task<void> { co_await s.delay(d); };
  std::vector<Task<void>> tasks;
  for (int i = 1; i <= 4; ++i) tasks.push_back(sleeper(sched, sim::seconds(i)));
  sched.spawn([](sim::Scheduler& s, std::vector<Task<void>> ts) -> Task<void> {
    co_await sim::when_all(s, std::move(ts));
  }(sched, std::move(tasks)));
  sched.run();
  EXPECT_EQ(sched.now(), sim::seconds(4));  // max, not sum
}

TEST(WhenAllTest, EmptySetCompletesImmediately) {
  sim::Scheduler sched;
  sched.spawn([](sim::Scheduler& s) -> Task<void> {
    co_await sim::when_all(s, {});
  }(sched));
  sched.run();
  EXPECT_EQ(sched.now(), 0);
}

TEST(WhenAllTest, FirstChildErrorPropagatesAfterAllSettle) {
  sim::Scheduler sched;
  auto thrower = [](sim::Scheduler& s) -> Task<void> {
    co_await s.delay(sim::seconds(1));
    throw std::runtime_error("child failed");
  };
  auto slow = [](sim::Scheduler& s) -> Task<void> { co_await s.delay(sim::seconds(3)); };
  bool caught = false;
  sim::TimePoint caught_at = -1;
  sched.spawn([](sim::Scheduler& s, Task<void> a, Task<void> b, bool* flag,
                 sim::TimePoint* when) -> Task<void> {
    std::vector<Task<void>> ts;
    ts.push_back(std::move(a));
    ts.push_back(std::move(b));
    try {
      co_await sim::when_all(s, std::move(ts));
    } catch (const std::runtime_error&) {
      *flag = true;
      *when = s.now();
    }
  }(sched, thrower(sched), slow(sched), &caught, &caught_at));
  sched.run();
  EXPECT_TRUE(caught);
  EXPECT_EQ(caught_at, sim::seconds(3));  // waits for the slow child too
}

TEST(SchedulerStress, ManyTimersCancelHalf) {
  sim::Scheduler sched;
  int fired = 0;
  std::vector<sim::Timer> timers;
  for (int i = 1; i <= 2000; ++i) {
    timers.push_back(sched.schedule_callback(sim::milliseconds(i), [&fired] { ++fired; }));
  }
  for (std::size_t i = 0; i < timers.size(); i += 2) timers[i].cancel();
  sched.run();
  EXPECT_EQ(fired, 1000);
}

TEST(SchedulerStress, InterleavedSpawnsFromCallbacks) {
  // Callbacks that spawn processes that schedule callbacks: the event loop
  // must remain deterministic and drain fully.
  sim::Scheduler sched;
  int completed = 0;
  std::function<void(int)> plant = [&](int depth) {
    if (depth == 0) {
      ++completed;
      return;
    }
    sched.schedule_callback(sched.now() + sim::microseconds(10), [&, depth] {
      sched.spawn([](sim::Scheduler& s, std::function<void(int)>& p, int d) -> Task<void> {
        co_await s.delay(sim::microseconds(5));
        p(d - 1);
      }(sched, plant, depth));
    });
  };
  for (int i = 0; i < 10; ++i) plant(5);
  sched.run();
  EXPECT_EQ(completed, 10);
}

// Byte conservation: every byte the workload writes and reads appears in
// the flow scheduler's delivered-byte accounting (data + service bytes),
// and the pool's capacity accounting matches exactly.
class ConservationProperty : public ::testing::TestWithParam<int> {};

TEST_P(ConservationProperty, FlowAndCapacityAccountingBalance) {
  const int procs = GetParam();
  sim::Scheduler sched;
  daos::ClusterConfig cfg = bench::testbed_config(1, 1);
  daos::Cluster cluster(sched, cfg);

  const Bytes per_op = 1_MiB;
  const int ops = 6;
  auto writer = [](daos::Cluster& cl, int rank, int n, Bytes size) -> Task<void> {
    daos::Client client(cl, cl.client_endpoint(0, static_cast<std::size_t>(rank)),
                        static_cast<std::uint64_t>(rank));
    daos::ContHandle cont = co_await client.main_cont_open();
    for (int i = 0; i < n; ++i) {
      const auto oid = daos::ObjectId::generate(static_cast<std::uint32_t>(rank),
                                                static_cast<std::uint64_t>(i), daos::ObjectType::array,
                                                daos::ObjectClass::S1);
      auto arr = (co_await client.array_create(cont, oid)).value();
      (co_await client.array_write(arr, 0, nullptr, size)).expect_ok("write");
      auto n_read = co_await client.array_read(arr, 0, nullptr, size);
      EXPECT_EQ(n_read.value(), size);
      co_await client.array_close(arr);
    }
  };
  for (int r = 0; r < procs; ++r) sched.spawn(writer(cluster, r, ops, per_op));
  sched.run();

  const double moved = static_cast<double>(procs) * ops * static_cast<double>(per_op);
  // Flows carried at least the write + read payload (service flows add more).
  EXPECT_GE(cluster.flows().stats().bytes_delivered, 2.0 * moved * 0.999);
  // Every started flow completed; none leaked.
  EXPECT_EQ(cluster.flows().stats().flows_started, cluster.flows().stats().flows_completed);
  EXPECT_EQ(cluster.flows().active_flows(), 0u);
  // Capacity: exactly the written bytes are charged.
  EXPECT_EQ(cluster.pool_used(), static_cast<Bytes>(procs) * ops * per_op);
}

INSTANTIATE_TEST_SUITE_P(Widths, ConservationProperty, ::testing::Values(1, 4, 16));

// The simulated clock is monotone through arbitrarily contended workloads
// and wall-clock time roughly scales with work (sanity on the DES itself).
TEST(ClockSanity, MoreWorkTakesMoreSimulatedTime) {
  auto run_ops = [](int ops) {
    sim::Scheduler sched;
    daos::Cluster cluster(sched, bench::testbed_config(1, 1));
    auto proc = [](daos::Cluster& cl, int n) -> Task<void> {
      daos::Client client(cl, cl.client_endpoint(0, 0), 0);
      daos::ContHandle cont = co_await client.main_cont_open();
      for (int i = 0; i < n; ++i) {
        const auto oid = daos::ObjectId::generate(9, static_cast<std::uint64_t>(i),
                                                  daos::ObjectType::array, daos::ObjectClass::S1);
        auto arr = (co_await client.array_create(cont, oid)).value();
        (co_await client.array_write(arr, 0, nullptr, 1_MiB)).expect_ok("write");
        co_await client.array_close(arr);
      }
    };
    sched.spawn(proc(cluster, ops));
    sched.run();
    return sched.now();
  };
  const auto t10 = run_ops(10);
  const auto t20 = run_ops(20);
  EXPECT_GT(t20, t10);
  EXPECT_NEAR(static_cast<double>(t20) / static_cast<double>(t10), 2.0, 0.5);
}

// Torn-read checker: a reader pinned to a committed epoch must observe that
// epoch's bytes — whole and unmixed — no matter how many re-writes and
// commits stream in around its chunked reads.  Each epoch writes one uniform
// fill byte (= the epoch number), so a single mixed buffer proves a torn read.
TEST(SnapshotIsolation, PinnedReaderNeverSeesTornBytes) {
  sim::Scheduler sched;
  daos::ClusterConfig cfg = bench::testbed_config(1, 1);
  cfg.payload_mode = daos::PayloadMode::full;
  cfg.model.epoch_retention_depth = 2;
  daos::Cluster cluster(sched, cfg);
  const auto oid = daos::ObjectId::generate(3, 1, daos::ObjectType::array, daos::ObjectClass::S1);
  const Bytes size = 256_KiB;

  auto writer = [](daos::Cluster& cl, daos::ObjectId id, Bytes n) -> Task<void> {
    daos::Client client(cl, cl.client_endpoint(0, 0), 0);
    daos::ContHandle cont = co_await client.main_cont_open();
    auto arr = (co_await client.array_create(cont, id)).value();
    for (std::uint8_t epoch = 1; epoch <= 10; ++epoch) {
      std::vector<std::uint8_t> fill(n, epoch);
      (co_await client.array_write(arr, 0, fill.data(), n)).expect_ok("write");
      const auto committed = co_await client.cont_commit(cont);
      EXPECT_EQ(committed.value(), epoch);
      co_await cl.scheduler().delay(sim::microseconds(200.0));
    }
  };

  std::uint64_t pinned_reads = 0;
  auto reader = [](daos::Cluster& cl, daos::ObjectId id, Bytes n,
                   std::uint64_t* reads) -> Task<void> {
    daos::Client client(cl, cl.client_endpoint(0, 1), 1);
    daos::ContHandle cont = co_await client.main_cont_open();
    while (cont.container->committed_epoch() == 0) {
      co_await cl.scheduler().delay(sim::microseconds(100.0));
    }
    std::vector<std::uint8_t> buffer(n);
    for (int round = 0; round < 6; ++round) {
      daos::ContHandle snap = (co_await client.cont_snapshot(cont)).value();
      daos::ArrayHandle arr = (co_await client.array_open(snap, id)).value();
      // Chunked reads with gaps: plenty of room for the writer to publish
      // newer epochs mid-read.  The pin must make that invisible.
      const Bytes chunk = n / 8;
      for (Bytes off = 0; off < n; off += chunk) {
        EXPECT_EQ((co_await client.array_read(arr, off, buffer.data() + off, chunk)).value(),
                  chunk);
        co_await cl.scheduler().delay(sim::microseconds(150.0));
      }
      const auto expected = static_cast<std::uint8_t>(snap.epoch);
      for (Bytes i = 0; i < n; ++i) {
        if (buffer[i] != expected) {
          ADD_FAILURE() << "torn read: byte " << i << " is " << int(buffer[i]) << ", pinned epoch "
                        << snap.epoch;
          break;
        }
      }
      ++*reads;
      (co_await client.snapshot_close(snap)).expect_ok("close");
    }
  };

  sched.spawn(writer(cluster, oid, size));
  sched.spawn(reader(cluster, oid, size, &pinned_reads));
  sched.run();
  EXPECT_EQ(pinned_reads, 6u);
  const daos::EpochStats epochs = cluster.epoch_stats();
  EXPECT_EQ(epochs.snapshots_opened, epochs.snapshots_released);
  EXPECT_GT(epochs.cow_bytes, 0u) << "retained versions must have copied on write";
}

// The same property through the benchmark harness: a fault-free pattern-B
// run with snapshot_reads verifies every pinned read byte-stably; the run
// fails outright on a torn or unstable snapshot (field_bench.cc), so a clean
// outcome with nonzero verified reads IS the invariant.
TEST(SnapshotIsolation, PatternBSnapshotRunVerifiesPinnedReads) {
  daos::ClusterConfig cfg = bench::testbed_config(1, 1);
  cfg.payload_mode = daos::PayloadMode::full;
  cfg.model.epoch_retention_depth = 3;
  bench::FieldBenchParams params;
  params.ops_per_process = 4;
  params.processes_per_node = 4;
  params.field_size = 64_KiB;
  params.snapshot_reads = true;
  const bench::RunOutcome out = bench::run_field_once(cfg, params, 'B', 11);
  ASSERT_FALSE(out.failed) << out.failure;
  EXPECT_GT(out.metrics.value("fdb.snapshot_verified_reads"), 0.0);
  EXPECT_EQ(out.metrics.value("fdb.snapshot_fallbacks"), 0.0) << "fault-free run fell back";
  EXPECT_GT(out.metrics.value("epoch.commits"), 0.0);
  EXPECT_EQ(out.metrics.value("epoch.snapshots_opened"),
            out.metrics.value("epoch.snapshots_released"));
}

// Seeds change jitter but never change functional outcomes.
TEST(SeedInvariance, FunctionalResultsIdenticalAcrossSeeds) {
  for (const std::uint64_t seed : {1ull, 42ull, 31337ull}) {
    sim::Scheduler sched;
    daos::ClusterConfig cfg = bench::testbed_config(1, 1);
    cfg.seed = seed;
    cfg.payload_mode = daos::PayloadMode::full;
    daos::Cluster cluster(sched, cfg);
    auto proc = [](daos::Cluster& cl) -> Task<void> {
      daos::Client client(cl, cl.client_endpoint(0, 0), 7);
      daos::ContHandle cont = co_await client.main_cont_open();
      const auto oid =
          daos::ObjectId::generate(1, 1, daos::ObjectType::array, daos::ObjectClass::S2);
      auto arr = (co_await client.array_create(cont, oid)).value();
      std::vector<std::uint8_t> data(123456);
      for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i);
      (co_await client.array_write(arr, 0, data.data(), data.size())).expect_ok("write");
      std::vector<std::uint8_t> out(data.size());
      EXPECT_EQ((co_await client.array_read(arr, 0, out.data(), out.size())).value(), data.size());
      EXPECT_EQ(out, data);
    };
    sched.spawn(proc(cluster));
    sched.run();
  }
}

}  // namespace
}  // namespace nws
