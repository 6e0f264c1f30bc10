// Edge-case coverage: small behaviours not exercised elsewhere.
#include <gtest/gtest.h>

#include "daos/client.h"
#include "daos/cluster.h"
#include "fdb/field_key.h"
#include "net/flow.h"
#include "sim/scheduler.h"

namespace nws {
namespace {

TEST(UnitsEdge, LargeByteRendering) {
  EXPECT_EQ(format_bytes(40_TiB), "40 TiB");
  EXPECT_EQ(format_bytes(700_TiB), "700 TiB");
  EXPECT_EQ(format_bytes(1536_GiB), "1.50 TiB");
}

TEST(SchedulerEdge, EventsExecutedCounts) {
  sim::Scheduler sched;
  for (int i = 0; i < 5; ++i) sched.schedule_callback(i + 1, [] {});
  sched.run();
  EXPECT_EQ(sched.events_executed(), 5u);
  EXPECT_EQ(sched.live_processes(), 0u);
}

TEST(SchedulerEdge, TimerPendingLifecycle) {
  sim::Scheduler sched;
  sim::Timer never;  // default-constructed: nothing pending
  EXPECT_FALSE(never.pending());
  sim::Timer timer = sched.schedule_callback(sim::seconds(1), [] {});
  EXPECT_TRUE(timer.pending());
  sched.run();
  EXPECT_FALSE(timer.pending());  // fired
  timer.cancel();                 // safe after firing
}

TEST(FlowSchedulerEdge, TestHooksReflectState) {
  sim::Scheduler sched;
  net::FlowScheduler flows(sched);
  net::Link l;
  l.name = "l";
  l.raw_capacity = 100.0;
  const net::LinkId link = flows.add_link(std::move(l));
  sched.spawn([](net::FlowScheduler& fs, net::LinkId id, sim::Scheduler& s) -> sim::Task<void> {
    std::vector<net::LinkId> path{id};
    co_await fs.transfer(std::move(path), 1000);
    (void)s;
  }(flows, link, sched));
  // Step once: the process starts its flow.
  while (flows.active_flows() == 0 && sched.step()) {
  }
  EXPECT_EQ(flows.active_flows(), 1u);
  EXPECT_EQ(flows.flows_on_link(link), 1u);
  const auto rates = flows.current_rates();
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0], 100.0);
  sched.run();
  EXPECT_EQ(flows.active_flows(), 0u);
}

TEST(FieldKeyEdge, PartsWithoutForecastKeys) {
  fdb::FieldKey key;
  key.set("param", "t").set("level", "850");
  EXPECT_EQ(key.most_significant(), "");
  EXPECT_EQ(key.least_significant(), "'level': '850', 'param': 't'");
  EXPECT_EQ(key.canonical(), key.least_significant());
}

TEST(FieldKeyEdge, DuplicateParseKeepsLast) {
  const auto parsed = fdb::FieldKey::parse("param=t,param=z");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().get("param").value(), "z");
  EXPECT_EQ(parsed.value().size(), 1u);
}

TEST(DaosEdge, KvOpenOnArrayIdIsLogicError) {
  sim::Scheduler sched;
  daos::ClusterConfig cfg;
  cfg.server_nodes = 1;
  cfg.client_nodes = 1;
  daos::Cluster cluster(sched, cfg);
  const auto array_id =
      daos::ObjectId::generate(0, 1, daos::ObjectType::array, daos::ObjectClass::S1);
  EXPECT_THROW(cluster.main_container().kv(array_id), std::logic_error);
  // And the reverse: creating an array with a KV-typed id.
  const auto kv_id =
      daos::ObjectId::generate(0, 2, daos::ObjectType::key_value, daos::ObjectClass::S1);
  EXPECT_THROW((void)cluster.main_container().create_array(kv_id, daos::PayloadMode::digest),
               std::logic_error);
}

TEST(DaosEdge, ObjectIdTypeCollisionRejected) {
  // Same id bits used as both KV and array must be caught.
  sim::Scheduler sched;
  daos::ClusterConfig cfg;
  cfg.server_nodes = 1;
  cfg.client_nodes = 1;
  daos::Cluster cluster(sched, cfg);
  const auto kv_id = daos::ObjectId::generate(7, 7, daos::ObjectType::key_value, daos::ObjectClass::SX);
  cluster.main_container().kv(kv_id);  // materialise
  EXPECT_TRUE(cluster.main_container().has_object(kv_id));
  EXPECT_EQ(cluster.main_container().object_count(), 1u);
}

TEST(DaosEdge, HandleCloseInvalidatesUse) {
  sim::Scheduler sched;
  daos::ClusterConfig cfg;
  cfg.server_nodes = 1;
  cfg.client_nodes = 1;
  daos::Cluster cluster(sched, cfg);
  bool threw = false;
  auto proc = [](daos::Cluster& cl, bool* out) -> sim::Task<void> {
    daos::Client client(cl, cl.client_endpoint(0, 0), 0);
    daos::ContHandle cont = co_await client.main_cont_open();
    daos::KvHandle kv = co_await client.kv_open(
        cont, daos::ObjectId::generate(0, 3, daos::ObjectType::key_value, daos::ObjectClass::S1));
    co_await client.kv_close(kv);
    try {
      (void)co_await client.kv_get(kv, "x");
    } catch (const std::logic_error&) {
      *out = true;
    }
  };
  sched.spawn(proc(cluster, &threw));
  sched.run();
  EXPECT_TRUE(threw);
}

TEST(ClusterEdge, SingleEngineUsesOnlyFirstSocket) {
  sim::Scheduler sched;
  daos::ClusterConfig cfg;
  cfg.server_nodes = 2;
  cfg.engines_per_server = 1;
  cfg.client_nodes = 1;
  daos::Cluster cluster(sched, cfg);
  EXPECT_EQ(cluster.engine_count(), 2u);
  EXPECT_EQ(cluster.target_count(), 24u);
  for (std::size_t i = 0; i < cluster.target_count(); ++i) {
    EXPECT_EQ(cluster.target(i).socket, 0u);
  }
}

TEST(ClusterEdge, PinningWithSingleSocketInUse) {
  sim::Scheduler sched;
  daos::ClusterConfig cfg;
  cfg.server_nodes = 1;
  cfg.client_nodes = 1;
  cfg.engines_per_server = 1;
  cfg.client_sockets_in_use = 1;
  daos::Cluster cluster(sched, cfg);
  for (std::size_t p = 0; p < 8; ++p) {
    EXPECT_EQ(cluster.client_endpoint(0, p).socket, 0u);
  }
}

}  // namespace
}  // namespace nws
