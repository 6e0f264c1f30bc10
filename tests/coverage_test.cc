// Additional behavioural coverage across modules.
#include <gtest/gtest.h>

#include <set>

#include "daos/client.h"
#include "daos/cluster.h"
#include "harness/experiment.h"
#include "ior/ior.h"
#include "lustre/lustre.h"

namespace nws {
namespace {

using daos::ObjectClass;
using daos::ObjectId;
using daos::ObjectType;

struct DaosFixture {
  sim::Scheduler sched;
  std::unique_ptr<daos::Cluster> cluster;

  explicit DaosFixture(daos::PayloadMode mode = daos::PayloadMode::digest, std::size_t servers = 1) {
    daos::ClusterConfig cfg = bench::testbed_config(servers, 1);
    cfg.payload_mode = mode;
    cluster = std::make_unique<daos::Cluster>(sched, cfg);
  }

  template <typename Body>
  void run(Body body) {
    auto proc = [](daos::Cluster& cl, Body b) -> sim::Task<void> {
      daos::Client client(cl, cl.client_endpoint(0, 0), 0);
      co_await b(client);
    };
    sched.spawn(proc(*cluster, std::move(body)));
    sched.run();
  }
};

TEST(ClientKvTest, RemoveAndListThroughApi) {
  DaosFixture fx;
  fx.run([](daos::Client& c) -> sim::Task<void> {
    daos::ContHandle cont = co_await c.main_cont_open();
    daos::KvHandle kv =
        co_await c.kv_open(cont, ObjectId::generate(0, 77, ObjectType::key_value, ObjectClass::SX));
    for (int i = 0; i < 5; ++i) {
      (co_await c.kv_put(kv, "step=" + std::to_string(i), "oid")).expect_ok("put");
    }
    EXPECT_EQ((co_await c.kv_list(kv)).size(), 5u);
    (co_await c.kv_remove(kv, "step=2")).expect_ok("remove");
    EXPECT_EQ((co_await c.kv_remove(kv, "step=2")).code(), Errc::not_found);
    const auto keys = co_await c.kv_list(kv);
    EXPECT_EQ(keys.size(), 4u);
    EXPECT_EQ(std::count(keys.begin(), keys.end(), "step=2"), 0);
  });
}

TEST(ClientEpochSurfaceTest, SnapshotHandlesAreStrictlyReadOnly) {
  // The epoch API's error surface at the client layer (docs/EPOCHS.md):
  // every mutation through a pinned handle is rejected up front, and the
  // epoch operations themselves reject the wrong handle kind.
  DaosFixture fx(daos::PayloadMode::full);
  fx.run([](daos::Client& c) -> sim::Task<void> {
    daos::ContHandle cont = co_await c.main_cont_open();
    daos::KvHandle kv =
        co_await c.kv_open(cont, ObjectId::generate(8, 1, ObjectType::key_value, ObjectClass::SX));
    (co_await c.kv_put(kv, "k", "committed")).expect_ok("put");
    const daos::Epoch epoch = (co_await c.cont_commit(cont)).value();

    daos::ContHandle snap = (co_await c.cont_snapshot(cont, epoch)).value();
    daos::KvHandle pinned = co_await c.kv_open(snap, kv.oid);
    EXPECT_EQ((co_await c.kv_put(pinned, "k", "x")).code(), Errc::invalid);
    EXPECT_EQ((co_await c.kv_remove(pinned, "k")).code(), Errc::invalid);
    const ObjectId array_oid = ObjectId::generate(8, 2, ObjectType::array, ObjectClass::S1);
    EXPECT_EQ((co_await c.array_create(snap, array_oid)).status().code(), Errc::invalid);
    EXPECT_EQ((co_await c.array_destroy(snap, array_oid)).code(), Errc::invalid);
    // Epoch ops on the wrong handle kind: commit needs a live handle, close
    // needs a pinned one.
    EXPECT_EQ((co_await c.cont_commit(snap)).status().code(), Errc::invalid);
    EXPECT_EQ((co_await c.snapshot_close(cont)).code(), Errc::invalid);

    // A key written after the pin is invisible through it, including listing.
    (co_await c.kv_put(kv, "later", "v")).expect_ok("put");
    [[maybe_unused]] const auto committed = (co_await c.cont_commit(cont)).value();
    EXPECT_EQ((co_await c.kv_get(pinned, "later")).status().code(), Errc::not_found);
    EXPECT_EQ((co_await c.kv_list(pinned)).size(), 1u);
    EXPECT_EQ((co_await c.kv_list(kv)).size(), 2u);

    // An array created after the pin does not exist in the snapshot.
    [[maybe_unused]] const auto created =
        (co_await c.array_create(cont, array_oid)).value();
    EXPECT_EQ((co_await c.array_open(snap, array_oid)).status().code(), Errc::not_found);
    (co_await c.snapshot_close(snap)).expect_ok("close");
    co_return;
  });
}

TEST(PlacementTest, SxKvShardsSpreadAcrossEngines) {
  // A shared SX Key-Value must distribute dkeys over every engine, or the
  // Fig. 4 contention model would concentrate on one socket.
  DaosFixture fx(daos::PayloadMode::digest, 2);  // 4 engines, 48 targets
  const ObjectId kv = ObjectId::generate(1, 1, ObjectType::key_value, ObjectClass::SX);
  std::set<std::size_t> engines;
  for (int i = 0; i < 200; ++i) {
    const std::size_t shard = fx.cluster->shard_for_key(kv, "'step': '" + std::to_string(i) + "'");
    engines.insert(fx.cluster->target(shard).engine);
  }
  EXPECT_EQ(engines.size(), fx.cluster->engine_count());
}

TEST(ArrayConflictTest, ConcurrentOpsOnOneObjectSerialise) {
  // The paper's "no index" mode observation: re-writer and reader of the
  // same Array contend at the Array level (Section 5.3).
  auto run_with = [](bool same_object) {
    sim::Scheduler sched;
    daos::ClusterConfig cfg = bench::testbed_config(1, 1);
    daos::Cluster cluster(sched, cfg);
    auto proc = [](daos::Cluster& cl, int rank, bool shared) -> sim::Task<void> {
      daos::Client client(cl, cl.client_endpoint(0, static_cast<std::size_t>(rank)),
                          static_cast<std::uint64_t>(rank));
      daos::ContHandle cont = co_await client.main_cont_open();
      const ObjectId oid = ObjectId::generate(9, shared ? 1 : static_cast<std::uint64_t>(rank + 1),
                                              ObjectType::array, ObjectClass::S1);
      auto created = co_await client.array_create(cont, oid);
      daos::ArrayHandle handle;
      if (created.is_ok()) {
        handle = created.value();
      } else {
        handle = (co_await client.array_open(cont, oid)).value();
      }
      for (int i = 0; i < 6; ++i) {
        (co_await client.array_write(handle, 0, nullptr, 2_MiB)).expect_ok("write");
      }
    };
    sched.spawn(proc(cluster, 0, same_object));
    sched.spawn(proc(cluster, 1, same_object));
    sched.run();
    return sched.now();
  };
  // Same object: writes serialise on the object lock; distinct objects may
  // overlap (they still share the engine cap, so require only a clear gap).
  EXPECT_GT(static_cast<double>(run_with(true)), static_cast<double>(run_with(false)) * 1.2);
}

TEST(IorSchemeTest, PerSegmentMovesSameBytes) {
  for (const ior::TransferScheme scheme :
       {ior::TransferScheme::single_shot, ior::TransferScheme::per_segment}) {
    sim::Scheduler sched;
    daos::Cluster cluster(sched, bench::testbed_config(1, 1));
    ior::IorParams params;
    params.segments = 8;
    params.processes_per_node = 2;
    params.scheme = scheme;
    const ior::IorResult result = ior::run_ior(cluster, params);
    ASSERT_FALSE(result.failed) << result.failure;
    EXPECT_EQ(result.write_log.total_bytes(), 2u * 8u * 1_MiB);
    EXPECT_EQ(result.read_log.total_bytes(), 2u * 8u * 1_MiB);
    // Functional outcome identical: the arrays hold the full object.
    EXPECT_EQ(cluster.pool_used(), 2u * 8u * 1_MiB);
  }
}

TEST(IorSchemeTest, PerSegmentNeverFasterWhenLatencyBound) {
  ior::IorParams base;
  base.segments = 20;
  base.processes_per_node = 2;  // latency-bound: overheads visible
  ior::IorParams seg = base;
  seg.scheme = ior::TransferScheme::per_segment;
  const bench::RunOutcome one = bench::run_ior_once(bench::testbed_config(1, 1), base, 3);
  const bench::RunOutcome per = bench::run_ior_once(bench::testbed_config(1, 1), seg, 3);
  ASSERT_FALSE(one.failed);
  ASSERT_FALSE(per.failed);
  EXPECT_LE(per.write_bw, one.write_bw * 1.02);
  EXPECT_LE(per.read_bw, one.read_bw * 1.02);
}

TEST(LustreStripeTest, StripeCountClampedToOsts) {
  sim::Scheduler sched;
  lustre::LustreConfig cfg;
  cfg.osts = 4;
  cfg.client_nodes = 1;
  lustre::LustreSystem system(sched, cfg);
  auto proc = [](lustre::LustreSystem& sys) -> sim::Task<void> {
    lustre::LustreClient client(sys, sys.client_endpoint(0, 0), 0);
    // Request far more stripes than OSTs exist; writes must still balance.
    auto file = (co_await client.create("/wide", 64, 1_MiB)).value();
    (co_await client.write(file, 0, 16_MiB)).expect_ok("write");
    EXPECT_EQ(co_await client.file_size(file), 16_MiB);
  };
  sched.spawn(proc(system));
  sched.run();
}

TEST(JitterTest, SeedChangesTimingButNotOutcome) {
  auto run_with_seed = [](std::uint64_t seed) {
    sim::Scheduler sched;
    daos::ClusterConfig cfg = bench::testbed_config(1, 1);
    cfg.seed = seed;
    daos::Cluster cluster(sched, cfg);
    ior::IorParams params;
    params.segments = 10;
    params.processes_per_node = 4;
    const ior::IorResult result = ior::run_ior(cluster, params);
    EXPECT_FALSE(result.failed);
    EXPECT_EQ(result.write_log.operations(), 4u);
    return result.write_log.total_wall_clock();
  };
  EXPECT_NE(run_with_seed(1), run_with_seed(2));  // jitter differs
  EXPECT_EQ(run_with_seed(1), run_with_seed(1));  // but deterministically
}

TEST(FaultInjectionTest, PartialFailureRateDegradesGracefully) {
  sim::Scheduler sched;
  daos::ClusterConfig cfg = bench::testbed_config(1, 1);
  cfg.fault_spec.transient_error_rate = 0.3;
  daos::Cluster cluster(sched, cfg);
  int ok = 0;
  int failed = 0;
  auto proc = [](daos::Cluster& cl, int* ok_count, int* fail_count) -> sim::Task<void> {
    daos::Client client(cl, cl.client_endpoint(0, 0), 0);
    daos::ContHandle cont = co_await client.main_cont_open();
    for (std::uint64_t i = 0; i < 60; ++i) {
      // Both the create and the write consult the fault plan.
      const ObjectId oid = ObjectId::generate(3, i, ObjectType::array, ObjectClass::S1);
      auto arr = co_await client.array_create(cont, oid);
      if (!arr.is_ok()) {
        ++*fail_count;
        continue;
      }
      ++*ok_count;
      auto handle = arr.value();
      const Status st = co_await client.array_write(handle, 0, nullptr, 1_MiB);
      st.is_ok() ? ++*ok_count : ++*fail_count;
      co_await client.array_close(handle);
    }
  };
  sched.spawn(proc(cluster, &ok, &failed));
  sched.run();
  // Roughly 30% of operations fail, each one an injected transient error;
  // the rest complete normally.
  EXPECT_GT(failed, 5);
  EXPECT_GT(ok, 20);
  EXPECT_EQ(static_cast<std::uint64_t>(failed), cluster.fault_plan()->stats().transient_errors);
}

}  // namespace
}  // namespace nws
