// Tests for the asynchronous event-queue API and array destruction/purge.
#include <gtest/gtest.h>

#include <string>

#include "daos/client.h"
#include "daos/cluster.h"
#include "daos/event_queue.h"
#include "fdb/catalogue.h"
#include "fdb/field_io.h"

namespace nws::daos {
namespace {

using nws::operator""_MiB;

struct Fixture {
  sim::Scheduler sched;
  std::unique_ptr<Cluster> cluster;

  Fixture() {
    ClusterConfig cfg;
    cfg.server_nodes = 1;
    cfg.client_nodes = 1;
    cfg.payload_mode = PayloadMode::digest;
    cluster = std::make_unique<Cluster>(sched, cfg);
  }

  template <typename Body>
  void run(Body body) {
    auto proc = [](Cluster& cl, Body b) -> sim::Task<void> {
      Client client(cl, cl.client_endpoint(0, 0), 0);
      co_await b(client);
    };
    sched.spawn(proc(*cluster, std::move(body)));
    sched.run();
  }
};

ObjectId array_oid(std::uint64_t i) {
  return ObjectId::generate(5, i, ObjectType::array, ObjectClass::S1);
}

TEST(EventQueueTest, OverlappedWritesCompleteConcurrently) {
  Fixture fx;
  fx.run([](Client& c) -> sim::Task<void> {
    ContHandle cont = co_await c.main_cont_open();
    EventQueue eq(c.cluster().scheduler());

    // Sequential timing baseline: two 8 MiB writes to distinct targets.
    const sim::TimePoint t0 = c.cluster().scheduler().now();
    for (std::uint64_t i = 0; i < 2; ++i) {
      auto arr = co_await c.array_create(cont, array_oid(i), 1, 1_MiB);
      auto handle = arr.value();
      (co_await c.array_write(handle, 0, nullptr, 8_MiB)).expect_ok("write");
      co_await c.array_close(handle);
    }
    const sim::Duration sequential = c.cluster().scheduler().now() - t0;

    // Async: both writes in flight simultaneously.
    auto arr_a = (co_await c.array_create(cont, array_oid(10), 1, 1_MiB)).value();
    auto arr_b = (co_await c.array_create(cont, array_oid(11), 1, 1_MiB)).value();
    const sim::TimePoint t1 = c.cluster().scheduler().now();
    const EventId e1 = eq.launch(c.array_write(arr_a, 0, nullptr, 8_MiB));
    const EventId e2 = eq.launch(c.array_write(arr_b, 0, nullptr, 8_MiB));
    EXPECT_EQ(eq.in_flight(), 2u);
    co_await eq.wait_all();
    const sim::Duration overlapped = c.cluster().scheduler().now() - t1;

    EXPECT_TRUE(eq.status_of(e1).is_ok());
    EXPECT_TRUE(eq.status_of(e2).is_ok());
    EXPECT_EQ(eq.in_flight(), 0u);
    // Overlapping hides most of the second write (distinct targets; only
    // the engine cap is shared).
    EXPECT_LT(static_cast<double>(overlapped), static_cast<double>(sequential) * 0.8);
  });
}

TEST(EventQueueTest, PollHarvestsInCompletionOrder) {
  Fixture fx;
  fx.run([](Client& c) -> sim::Task<void> {
    ContHandle cont = co_await c.main_cont_open();
    EventQueue eq(c.cluster().scheduler());
    auto small = (co_await c.array_create(cont, array_oid(20), 1, 1_MiB)).value();
    auto large = (co_await c.array_create(cont, array_oid(21), 1, 1_MiB)).value();
    const EventId slow = eq.launch(c.array_write(large, 0, nullptr, 16_MiB));
    const EventId fast = eq.launch(c.array_write(small, 0, nullptr, 1_MiB));
    (void)slow;

    co_await eq.wait_any();
    const auto first = eq.poll(1);
    EXPECT_EQ(first.size(), 1u);
    if (first.empty()) co_return;
    EXPECT_EQ(first[0], fast);  // the small write completes first

    co_await eq.wait_all();
    const auto rest = eq.poll();
    EXPECT_EQ(rest.size(), 1u);
    if (rest.empty()) co_return;
    EXPECT_EQ(rest[0], slow);
    EXPECT_TRUE(eq.poll().empty());
  });
}

TEST(EventQueueTest, FailuresSurfaceInStatus) {
  sim::Scheduler sched;
  ClusterConfig cfg;
  cfg.server_nodes = 1;
  cfg.client_nodes = 1;
  cfg.payload_mode = PayloadMode::digest;
  cfg.fault_spec.transient_error_rate = 1.0;
  Cluster cluster(sched, cfg);
  auto proc = [](Cluster& cl) -> sim::Task<void> {
    Client client(cl, cl.client_endpoint(0, 0), 0);
    ContHandle cont = co_await client.main_cont_open();
    // kv_open does not consult the fault plan; the put behind the event does.
    KvHandle kv =
        co_await client.kv_open(cont, ObjectId::generate(5, 30, ObjectType::key_value, ObjectClass::S1));
    const std::string key = "k";
    EventQueue eq(cl.scheduler());
    const EventId e = eq.launch(client.kv_put(kv, key, "v"));
    co_await eq.wait_all();
    EXPECT_EQ(eq.status_of(e).code(), Errc::io_error);
  };
  sched.spawn(proc(cluster));
  sched.run();
}

TEST(EventQueueTest, ValueLaunchDeliversResult) {
  Fixture fx;
  fx.run([](Client& c) -> sim::Task<void> {
    ContHandle cont = co_await c.main_cont_open();
    auto arr = (co_await c.array_create(cont, array_oid(40), 1, 1_MiB)).value();
    (co_await c.array_write(arr, 0, nullptr, 2_MiB)).expect_ok("write");

    EventQueue eq(c.cluster().scheduler());
    Bytes read_back = 0;
    eq.launch<Bytes>(c.array_read(arr, 0, nullptr, 2_MiB),
                     [&read_back](Result<Bytes> r) { read_back = r.value_or(0); });
    co_await eq.wait_all();
    EXPECT_EQ(read_back, 2_MiB);
  });
}

TEST(EventQueueTest, WaitOnIdleQueueReturnsImmediately) {
  Fixture fx;
  fx.run([](Client& c) -> sim::Task<void> {
    EventQueue eq(c.cluster().scheduler());
    const sim::TimePoint t0 = c.cluster().scheduler().now();
    co_await eq.wait_any();
    co_await eq.wait_all();
    EXPECT_EQ(c.cluster().scheduler().now(), t0);
    EXPECT_EQ(eq.status_of(42).code(), Errc::not_found);
  });
}

TEST(ArrayDestroyTest, ReleasesCapacity) {
  Fixture fx;
  fx.run([&fx](Client& c) -> sim::Task<void> {
    ContHandle cont = co_await c.main_cont_open();
    auto arr = (co_await c.array_create(cont, array_oid(50), 1, 1_MiB)).value();
    (co_await c.array_write(arr, 0, nullptr, 4_MiB)).expect_ok("write");
    EXPECT_EQ(fx.cluster->pool_used(), 4_MiB);
    co_await c.array_close(arr);

    (co_await c.array_destroy(cont, array_oid(50))).expect_ok("destroy");
    EXPECT_EQ(fx.cluster->pool_used(), 0u);
    EXPECT_EQ((co_await c.array_open(cont, array_oid(50))).status().code(), Errc::not_found);
    EXPECT_EQ((co_await c.array_destroy(cont, array_oid(50))).code(), Errc::not_found);
  });
}

TEST(PurgeTest, ReclaimsOrphanedGenerations) {
  Fixture fx;
  fx.run([&fx](Client& c) -> sim::Task<void> {
    fdb::FieldIoConfig cfg;  // full mode
    fdb::FieldIo io(c, cfg, 0);
    (co_await io.init()).expect_ok("init");

    fdb::FieldKey key;
    key.set("class", "od").set("date", "20260705").set("param", "t").set("step", "0");
    for (int generation = 0; generation < 4; ++generation) {
      (co_await io.write(key, nullptr, 1_MiB)).expect_ok("write");
    }
    EXPECT_EQ(fx.cluster->pool_used(), 4_MiB);  // 3 orphans + 1 live

    fdb::Catalogue catalogue(c, cfg);
    (co_await catalogue.init()).expect_ok("catalogue");
    const auto report = (co_await catalogue.purge(key.most_significant())).value();
    EXPECT_EQ(report.arrays_destroyed, 3u);
    EXPECT_EQ(report.bytes_reclaimed, 3_MiB);
    EXPECT_EQ(fx.cluster->pool_used(), 1_MiB);

    // The live field survives the purge.
    const auto n = co_await io.read(key, nullptr, 1_MiB);
    EXPECT_EQ(n.value(), 1_MiB);
    // A second purge is a no-op.
    EXPECT_EQ((co_await catalogue.purge(key.most_significant())).value().arrays_destroyed, 0u);
  });
}

TEST(PurgeTest, UnsupportedOutsideFullMode) {
  Fixture fx;
  fx.run([](Client& c) -> sim::Task<void> {
    fdb::FieldIoConfig cfg;
    cfg.mode = fdb::Mode::no_containers;
    fdb::FieldIo io(c, cfg, 0);
    (co_await io.init()).expect_ok("init");
    fdb::FieldKey key;
    key.set("class", "od").set("date", "20260705").set("param", "t");
    (co_await io.write(key, nullptr, 1_MiB)).expect_ok("write");

    fdb::Catalogue catalogue(c, cfg);
    (co_await catalogue.init()).expect_ok("catalogue");
    EXPECT_EQ((co_await catalogue.purge(key.most_significant())).status().code(), Errc::unsupported);
  });
}

}  // namespace
}  // namespace nws::daos
