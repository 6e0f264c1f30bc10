// Unit, integration and property tests for the DAOS simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "daos/client.h"
#include "daos/cluster.h"
#include "sim/when_all.h"

namespace nws::daos {
namespace {

using nws::operator""_KiB;
using nws::operator""_MiB;
using nws::operator""_GiB;

ClusterConfig small_config() {
  ClusterConfig cfg;
  cfg.server_nodes = 1;
  cfg.client_nodes = 1;
  cfg.payload_mode = PayloadMode::full;
  return cfg;
}

/// Runs `body` as a single simulated client process and returns the
/// simulated completion time.
template <typename Body>
sim::TimePoint run_client(Cluster& cluster, Body body) {
  sim::Scheduler& sched = cluster.scheduler();
  sim::TimePoint done = -1;
  auto proc = [](Cluster& cl, Body b, sim::TimePoint* out) -> sim::Task<void> {
    Client client(cl, cl.client_endpoint(0, 0), 0);
    co_await b(client);
    *out = cl.scheduler().now();
  };
  sched.spawn(proc(cluster, std::move(body), &done));
  sched.run();
  return done;
}

TEST(ObjectIdTest, EncodesTypeAndClass) {
  const ObjectId oid = ObjectId::generate(0x12345678u, 0xabcdef0123456789ull, ObjectType::array,
                                          ObjectClass::S2);
  EXPECT_EQ(oid.type(), ObjectType::array);
  EXPECT_EQ(oid.oclass(), ObjectClass::S2);
  EXPECT_EQ(oid.lo, 0xabcdef0123456789ull);
  EXPECT_EQ(oid.hi & 0xffffffffull, 0x12345678ull);
}

TEST(ObjectIdTest, FromDigestDeterministic) {
  const ObjectId a = ObjectId::from_digest(md5("field-key"), ObjectType::array, ObjectClass::S1);
  const ObjectId b = ObjectId::from_digest(md5("field-key"), ObjectType::array, ObjectClass::S1);
  const ObjectId c = ObjectId::from_digest(md5("other-key"), ObjectType::array, ObjectClass::S1);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(ObjectIdTest, ClassNames) {
  EXPECT_STREQ(object_class_name(ObjectClass::SX), "SX");
  EXPECT_EQ(object_class_by_name("S2"), ObjectClass::S2);
  EXPECT_THROW(object_class_by_name("RP_2G1"), std::invalid_argument);
}

TEST(UuidTest, Md5DerivationMatchesPaperConvention) {
  // Section 4: "container IDs computed as md5 sums of the most-significant
  // part of the key".
  const std::string msk = "'class': 'od', 'date': '20201224'";
  const Uuid u = Uuid::from_string_md5(msk);
  const Md5Digest d = md5(msk);
  EXPECT_EQ(u.hi, d.hi64());
  EXPECT_EQ(u.lo, d.lo64());
  EXPECT_EQ(Uuid::from_string_md5(msk), u);  // concurrent creators collide on the same id
}

TEST(UuidTest, StringRendering) {
  const Uuid u = Uuid::from_string_md5("x");
  EXPECT_EQ(u.to_string().size(), 36u);
  EXPECT_EQ(u.to_string()[8], '-');
}

TEST(ClusterConfigTest, Validation) {
  ClusterConfig cfg = small_config();
  EXPECT_TRUE(cfg.validate().is_ok());
  cfg.server_nodes = 0;
  EXPECT_EQ(cfg.validate().code(), Errc::invalid);
  cfg = small_config();
  cfg.engines_per_server = 3;
  EXPECT_EQ(cfg.validate().code(), Errc::invalid);
}

TEST(ClusterConfigTest, Psm2DualRailRejected) {
  // Paper 6.1.1: PSM2 cannot run dual-engine / dual-rail deployments.
  ClusterConfig cfg = small_config();
  cfg.provider = net::psm2_provider();
  EXPECT_EQ(cfg.validate().code(), Errc::unsupported);

  cfg.engines_per_server = 1;
  cfg.client_sockets_in_use = 1;
  EXPECT_TRUE(cfg.validate().is_ok());

  // With the constraint emulation disabled the config is accepted.
  cfg = small_config();
  cfg.provider = net::psm2_provider();
  cfg.faults.enforce_psm2_single_rail = false;
  EXPECT_TRUE(cfg.validate().is_ok());
}

TEST(ClusterTest, StructureMatchesPaperDeployment) {
  sim::Scheduler sched;
  ClusterConfig cfg = small_config();
  cfg.server_nodes = 4;
  cfg.client_nodes = 8;
  Cluster cluster(sched, cfg);
  // 2 engines per node, 12 targets per engine (paper 6.1).
  EXPECT_EQ(cluster.engine_count(), 8u);
  EXPECT_EQ(cluster.target_count(), 96u);
  EXPECT_EQ(cluster.region_count(), 8u);
  // 6 x 256 GiB DCPMM per socket = 1.5 TiB per region, 3 TiB per node.
  EXPECT_EQ(cluster.region(0).capacity(), 1536_GiB);
  EXPECT_EQ(cluster.pool_capacity(), 8u * 1536_GiB);
}

TEST(ClusterTest, ClientPinningBalancedAcrossSockets) {
  sim::Scheduler sched;
  Cluster cluster(sched, small_config());
  EXPECT_EQ(cluster.client_endpoint(0, 0).socket, 0u);
  EXPECT_EQ(cluster.client_endpoint(0, 1).socket, 1u);
  EXPECT_EQ(cluster.client_endpoint(0, 2).socket, 0u);
  EXPECT_EQ(cluster.client_endpoint(0, 0).node, 1u);  // clients follow servers
}

TEST(ClusterTest, PlacementRespectsObjectClass) {
  sim::Scheduler sched;
  ClusterConfig cfg = small_config();
  cfg.server_nodes = 2;
  Cluster cluster(sched, cfg);

  const ObjectId s1 = ObjectId::generate(1, 1, ObjectType::array, ObjectClass::S1);
  const ObjectId s2 = ObjectId::generate(1, 1, ObjectType::array, ObjectClass::S2);
  const ObjectId sx = ObjectId::generate(1, 1, ObjectType::array, ObjectClass::SX);
  EXPECT_EQ(cluster.stripe_targets(s1).size(), 1u);
  EXPECT_EQ(cluster.stripe_targets(s2).size(), 2u);
  EXPECT_EQ(cluster.stripe_targets(sx).size(), cluster.target_count());

  // Placement is deterministic.
  EXPECT_EQ(cluster.stripe_targets(s1), cluster.stripe_targets(s1));
}

TEST(ClusterTest, PlacementSpreadsObjects) {
  sim::Scheduler sched;
  ClusterConfig cfg = small_config();
  cfg.server_nodes = 2;
  Cluster cluster(sched, cfg);
  std::vector<std::size_t> load(cluster.target_count(), 0);
  const std::size_t n = 4800;
  for (std::size_t i = 0; i < n; ++i) {
    const ObjectId oid = ObjectId::generate(7, i, ObjectType::array, ObjectClass::S1);
    ++load[cluster.stripe_targets(oid)[0]];
  }
  // Mean 100 per target; no target should be wildly hot or empty.
  for (const std::size_t l : load) {
    EXPECT_GT(l, 50u);
    EXPECT_LT(l, 200u);
  }
}

TEST(ClusterTest, ShardForKeyStaysInStripe) {
  sim::Scheduler sched;
  ClusterConfig cfg = small_config();
  cfg.server_nodes = 2;
  Cluster cluster(sched, cfg);
  const ObjectId kv = ObjectId::generate(3, 9, ObjectType::key_value, ObjectClass::S2);
  const auto stripe = cluster.stripe_targets(kv);
  for (int i = 0; i < 50; ++i) {
    const std::size_t shard = cluster.shard_for_key(kv, "key" + std::to_string(i));
    EXPECT_TRUE(shard == stripe[0] || shard == stripe[1]);
  }
}

TEST(ClusterTest, PathsIncludeServiceAndMedia) {
  sim::Scheduler sched;
  Cluster cluster(sched, small_config());
  const Target& t = cluster.target(0);
  const net::Endpoint client = cluster.client_endpoint(0, 0);
  const auto wp = cluster.write_path(client, t);
  const auto rp = cluster.read_path(client, t);
  // Write: nic tx, nic rx, engine write, target write, scm write, node I/O
  // cap (same rail, no UPI).
  EXPECT_EQ(wp.size(), 6u);
  EXPECT_EQ(rp.size(), 6u);
  EXPECT_NE(wp, rp);
  // Cross-rail target: both directions cross the server's UPI (connections
  // follow the client's rail).
  const Target& other_socket = cluster.target(cluster.config().targets_per_engine);
  EXPECT_EQ(cluster.write_path(client, other_socket).size(), 7u);
  EXPECT_EQ(cluster.read_path(client, other_socket).size(), 7u);
  // Server-local service work touches engine + target only.
  EXPECT_EQ(cluster.service_path(0, true).size(), 1u);
}

TEST(ContainerTest, CreateOpenSemantics) {
  sim::Scheduler sched;
  Cluster cluster(sched, small_config());
  const Uuid uuid = Uuid::from_string_md5("forecast-1");
  EXPECT_EQ(cluster.open_container(uuid).status().code(), Errc::not_found);
  EXPECT_TRUE(cluster.create_container(uuid).is_ok());
  EXPECT_EQ(cluster.create_container(uuid).code(), Errc::already_exists);
  EXPECT_TRUE(cluster.open_container(uuid).is_ok());
  EXPECT_EQ(cluster.container_count(), 2u);  // main + forecast
  EXPECT_TRUE(cluster.main_container().is_main());
}

TEST(ContainerTest, ContainerIssueEmulation) {
  // Paper Section 7: full-mode pattern A with low contention failed beyond
  // 8 server nodes.
  sim::Scheduler sched;
  ClusterConfig cfg = small_config();
  cfg.server_nodes = 10;
  cfg.client_nodes = 2;
  cfg.faults.container_create_issue = true;
  cfg.faults.container_issue_threshold = 4;
  Cluster cluster(sched, cfg);
  Status last = Status::ok();
  for (int i = 0; i < 8; ++i) {
    last = cluster.create_container(Uuid::from_string_md5("c" + std::to_string(i)));
  }
  EXPECT_EQ(last.code(), Errc::unavailable);

  // At 8 server nodes or below the same workload succeeds.
  sim::Scheduler sched2;
  cfg.server_nodes = 8;
  Cluster cluster2(sched2, cfg);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(cluster2.create_container(Uuid::from_string_md5("c" + std::to_string(i))).is_ok());
  }
}

TEST(KvObjectTest, PutGetRemoveList) {
  sim::Scheduler sched;
  KvObject kv(sched);
  kv.put("step=0", "oid-1");
  kv.put("step=1", "oid-2");
  kv.put("step=0", "oid-3");  // overwrite
  EXPECT_EQ(kv.size(), 2u);
  EXPECT_EQ(kv.get("step=0").value(), "oid-3");
  EXPECT_EQ(kv.get("missing").status().code(), Errc::not_found);
  EXPECT_EQ(kv.list(), (std::vector<std::string>{"step=0", "step=1"}));
  EXPECT_TRUE(kv.remove("step=1").is_ok());
  EXPECT_EQ(kv.remove("step=1").code(), Errc::not_found);
  EXPECT_EQ(kv.size(), 1u);
}

TEST(ArrayObjectTest, FullModeRoundTrip) {
  sim::Scheduler sched;
  ArrayObject arr(sched, PayloadMode::full);
  std::vector<std::uint8_t> data(300);
  std::iota(data.begin(), data.end(), 0);
  arr.write(0, data.data(), data.size());
  EXPECT_EQ(arr.size(), 300u);

  std::vector<std::uint8_t> out(300);
  EXPECT_EQ(arr.read(0, out.data(), out.size()), 300u);
  EXPECT_EQ(out, data);

  // Partial read past the end clamps.
  EXPECT_EQ(arr.read(200, out.data(), 300), 100u);
  EXPECT_EQ(arr.read(300, out.data(), 10), 0u);
}

TEST(ArrayObjectTest, DigestModeTracksSizeWithoutBytes) {
  sim::Scheduler sched;
  std::vector<std::uint8_t> data(4096, 0x5a);
  ArrayObject full(sched, PayloadMode::full);
  ArrayObject digest(sched, PayloadMode::digest);
  full.write(0, data.data(), data.size());
  digest.write(0, data.data(), data.size());
  EXPECT_EQ(digest.size(), full.size());
  // Digest mode reads report length without materialising bytes.
  EXPECT_EQ(digest.read(0, nullptr, 4096), 4096u);
}

TEST(ArrayObjectTest, SparseWriteExtendsSize) {
  sim::Scheduler sched;
  ArrayObject arr(sched, PayloadMode::full);
  std::vector<std::uint8_t> data(10, 0xff);
  arr.write(1000, data.data(), data.size());
  EXPECT_EQ(arr.size(), 1010u);
  std::uint8_t byte = 1;
  EXPECT_EQ(arr.read(500, &byte, 1), 1u);
  EXPECT_EQ(byte, 0u);  // hole reads as zero
}

TEST(ArrayObjectTest, ShorterWholeVersionRewriteKeepsTheTail) {
  sim::Scheduler sched;
  ArrayObject arr(sched, PayloadMode::full);
  std::vector<std::uint8_t> data(300);
  std::iota(data.begin(), data.end(), 0);
  arr.write(0, data.data(), data.size());
  // Same epoch, then a later epoch recycling the version in place.
  const std::vector<std::uint8_t> head(100, 0xaa);
  for (const Epoch epoch : {Epoch{1}, Epoch{2}}) {
    arr.write(0, head.data(), head.size(), epoch);
    EXPECT_EQ(arr.size(), 300u);
    std::vector<std::uint8_t> out(300);
    EXPECT_EQ(arr.read(0, out.data(), out.size()), 300u);
    EXPECT_TRUE(std::equal(head.begin(), head.end(), out.begin()));
    EXPECT_TRUE(std::equal(out.begin() + 100, out.end(), data.begin() + 100)) << "tail lost";
  }
  // A rewrite covering the whole version replaces every byte and can grow it.
  std::vector<std::uint8_t> longer(400);
  std::iota(longer.begin(), longer.end(), 7);
  arr.write(0, longer.data(), longer.size(), 2);
  std::vector<std::uint8_t> out(400);
  EXPECT_EQ(arr.read(0, out.data(), out.size()), 400u);
  EXPECT_EQ(out, longer);
  // A later epoch that retains the superseded version: the shorter rewrite
  // still copies it (the whole old size is charged) and keeps its tail,
  // while epoch 2 keeps reading its own bytes.
  EXPECT_EQ(arr.write(0, head.data(), head.size(), 3, /*retain_superseded=*/true), 400u);
  EXPECT_EQ(arr.version_count(), 2u);
  EXPECT_EQ(arr.read(0, out.data(), out.size(), 2), 400u);
  EXPECT_EQ(out, longer);
  std::vector<std::uint8_t> expected = longer;
  std::copy(head.begin(), head.end(), expected.begin());
  EXPECT_EQ(arr.size(), 400u);
  EXPECT_EQ(arr.read(0, out.data(), out.size()), 400u);
  EXPECT_EQ(out, expected) << "tail lost";
}

TEST(ArrayObjectTest, WritePastTheEndLeavesAZeroHole) {
  sim::Scheduler sched;
  ArrayObject arr(sched, PayloadMode::full);
  const std::vector<std::uint8_t> first(100, 0x11);
  const std::vector<std::uint8_t> far(10, 0x22);
  arr.write(0, first.data(), first.size());
  arr.write(200, far.data(), far.size());
  EXPECT_EQ(arr.size(), 210u);
  std::vector<std::uint8_t> out(210, 0xff);
  EXPECT_EQ(arr.read(0, out.data(), out.size()), 210u);
  EXPECT_TRUE(std::all_of(out.begin(), out.begin() + 100, [](std::uint8_t b) { return b == 0x11; }));
  EXPECT_TRUE(std::all_of(out.begin() + 100, out.begin() + 200, [](std::uint8_t b) { return b == 0; }))
      << "hole must read as zeros";
  EXPECT_TRUE(std::all_of(out.begin() + 200, out.end(), [](std::uint8_t b) { return b == 0x22; }));
}

TEST(ClientTest, PoolConnectAndMainContainer) {
  sim::Scheduler sched;
  Cluster cluster(sched, small_config());
  const sim::TimePoint t = run_client(cluster, [](Client& c) -> sim::Task<void> {
    const PoolHandle pool = co_await c.pool_connect();
    EXPECT_TRUE(pool.connected);
    ContHandle main = co_await c.main_cont_open();
    EXPECT_TRUE(main.valid());
    EXPECT_TRUE(main.container->is_main());
  });
  EXPECT_GT(t, 0);  // operations consumed simulated time
}

TEST(ClientTest, KvRoundTripThroughApi) {
  sim::Scheduler sched;
  Cluster cluster(sched, small_config());
  run_client(cluster, [](Client& c) -> sim::Task<void> {
    ContHandle main = co_await c.main_cont_open();
    KvHandle kv = co_await c.kv_open(main, ObjectId::generate(0, 1, ObjectType::key_value, ObjectClass::SX));
    (co_await c.kv_put(kv, "'date':'20201224'", "forecast-uuid")).expect_ok("kv_put");
    const auto got = co_await c.kv_get(kv, "'date':'20201224'");
    EXPECT_EQ(got.value(), "forecast-uuid");
    const auto missing = co_await c.kv_get(kv, "absent");
    EXPECT_EQ(missing.status().code(), Errc::not_found);
    co_await c.kv_close(kv);
  });
}

TEST(ClientTest, KvListOrderingContract) {
  // kv_list guarantees lexicographic key order regardless of insertion or
  // removal history — namespace layers (dfs readdir, catalogue walks) fold
  // results in list order, so this contract is what keeps them bit-identical.
  sim::Scheduler sched;
  Cluster cluster(sched, small_config());
  run_client(cluster, [](Client& c) -> sim::Task<void> {
    ContHandle main = co_await c.main_cont_open();
    KvHandle kv =
        co_await c.kv_open(main, ObjectId::generate(0, 21, ObjectType::key_value, ObjectClass::SX));
    static constexpr const char* kKeys[] = {"zeta", "alpha", "mid", "alpha2", "b"};
    for (const char* key : kKeys) {
      (co_await c.kv_put(kv, key, "v")).expect_ok("kv_put");
    }
    const std::vector<std::string> first = co_await c.kv_list(kv);
    EXPECT_EQ(first, (std::vector<std::string>{"alpha", "alpha2", "b", "mid", "zeta"}));
    (co_await c.kv_remove(kv, "mid")).expect_ok("kv_remove");
    (co_await c.kv_put(kv, "aa", "v")).expect_ok("kv_put");
    const std::vector<std::string> second = co_await c.kv_list(kv);
    EXPECT_EQ(second, (std::vector<std::string>{"aa", "alpha", "alpha2", "b", "zeta"}));
    co_await c.kv_close(kv);
  });
}

TEST(ClientTest, KvPutIfAbsentOneWinner) {
  sim::Scheduler sched;
  Cluster cluster(sched, small_config());
  run_client(cluster, [](Client& c) -> sim::Task<void> {
    ContHandle main = co_await c.main_cont_open();
    KvHandle kv =
        co_await c.kv_open(main, ObjectId::generate(0, 22, ObjectType::key_value, ObjectClass::SX));
    (co_await c.kv_put_if_absent(kv, "k", "first")).expect_ok("kv_put_if_absent");
    EXPECT_EQ((co_await c.kv_put_if_absent(kv, "k", "second")).code(), Errc::already_exists);
    EXPECT_EQ((co_await c.kv_get(kv, "k")).value(), "first");  // loser changed nothing
    co_await c.kv_close(kv);
  });
}

TEST(ClientTest, KvPutIfAbsentConcurrentRacersSeeOneWinner) {
  sim::Scheduler sched;
  Cluster cluster(sched, small_config());
  int winners = 0;
  auto racer = [](Cluster& cl, std::uint32_t rank, int* wins) -> sim::Task<void> {
    Client c(cl, cl.client_endpoint(0, rank), rank);
    ContHandle main = co_await c.main_cont_open();
    KvHandle kv =
        co_await c.kv_open(main, ObjectId::generate(0, 23, ObjectType::key_value, ObjectClass::SX));
    const std::string value = "r" + std::to_string(rank);
    const Status st = co_await c.kv_put_if_absent(kv, "slot", value);
    if (st.is_ok()) ++*wins;
    else EXPECT_EQ(st.code(), Errc::already_exists);
    co_await c.kv_close(kv);
  };
  for (std::uint32_t r = 0; r < 4; ++r) sched.spawn(racer(cluster, r, &winners));
  sched.run();
  EXPECT_EQ(winners, 1);
}

TEST(ClientTest, KvPutIfAbsentRejectedOnSnapshotHandle) {
  sim::Scheduler sched;
  Cluster cluster(sched, small_config());
  run_client(cluster, [](Client& c) -> sim::Task<void> {
    ContHandle main = co_await c.main_cont_open();
    (void)co_await c.cont_commit(main);
    auto snap = co_await c.cont_snapshot(main);
    EXPECT_TRUE(snap.is_ok());
    if (snap.is_ok()) {
      KvHandle kv = co_await c.kv_open(
          snap.value(), ObjectId::generate(0, 24, ObjectType::key_value, ObjectClass::SX));
      EXPECT_EQ((co_await c.kv_put_if_absent(kv, "k", "v")).code(), Errc::invalid);
      co_await c.kv_close(kv);
      (void)co_await c.snapshot_close(snap.value());
    }
  });
}

TEST(ClientTest, ArrayWriteReadThroughApi) {
  sim::Scheduler sched;
  Cluster cluster(sched, small_config());
  run_client(cluster, [](Client& c) -> sim::Task<void> {
    ContHandle main = co_await c.main_cont_open();
    const ObjectId oid = ObjectId::generate(0, 2, ObjectType::array, ObjectClass::S1);
    auto arr = co_await c.array_create(main, oid);
    ArrayHandle handle = arr.value();  // throws if creation failed

    std::vector<std::uint8_t> data(256_KiB);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 7);
    (co_await c.array_write(handle, 0, data.data(), data.size())).expect_ok("array_write");
    EXPECT_EQ(co_await c.array_get_size(handle), data.size());

    std::vector<std::uint8_t> out(data.size());
    const auto n = co_await c.array_read(handle, 0, out.data(), out.size());
    EXPECT_EQ(n.value(), data.size());
    EXPECT_EQ(out, data);
    co_await c.array_close(handle);

    // Re-open and re-read.
    auto reopened = co_await c.array_open(main, oid);
    auto again = reopened.value();  // throws if open failed
    const auto n2 = co_await c.array_read(again, 128_KiB, out.data(), 64_KiB);
    EXPECT_EQ(n2.value(), 64_KiB);
    EXPECT_TRUE(std::equal(out.begin(), out.begin() + 64_KiB, data.begin() + 128_KiB));
  });
}

TEST(ClientTest, ArrayCreateTwiceFails) {
  sim::Scheduler sched;
  Cluster cluster(sched, small_config());
  run_client(cluster, [](Client& c) -> sim::Task<void> {
    ContHandle main = co_await c.main_cont_open();
    const ObjectId oid = ObjectId::generate(0, 3, ObjectType::array, ObjectClass::S1);
    EXPECT_TRUE((co_await c.array_create(main, oid)).is_ok());
    const auto second = co_await c.array_create(main, oid);
    EXPECT_EQ(second.status().code(), Errc::already_exists);
    const auto absent =
        co_await c.array_open(main, ObjectId::generate(0, 99, ObjectType::array, ObjectClass::S1));
    EXPECT_EQ(absent.status().code(), Errc::not_found);
  });
}

TEST(ClientTest, WritesConsumePoolCapacity) {
  sim::Scheduler sched;
  ClusterConfig cfg = small_config();
  cfg.payload_mode = PayloadMode::digest;
  Cluster cluster(sched, cfg);
  run_client(cluster, [](Client& c) -> sim::Task<void> {
    ContHandle main = co_await c.main_cont_open();
    const ObjectId oid = ObjectId::generate(0, 4, ObjectType::array, ObjectClass::S1);
    auto arr = co_await c.array_create(main, oid);
    auto handle = arr.value();
    (co_await c.array_write(handle, 0, nullptr, 8_MiB)).expect_ok("write");
    EXPECT_EQ(c.cluster().pool_used(), 8_MiB);
    // Overwrite does not grow the pool; extension charges only the delta.
    (co_await c.array_write(handle, 0, nullptr, 8_MiB)).expect_ok("rewrite");
    EXPECT_EQ(c.cluster().pool_used(), 8_MiB);
    (co_await c.array_write(handle, 8_MiB, nullptr, 2_MiB)).expect_ok("extend");
    EXPECT_EQ(c.cluster().pool_used(), 10_MiB);
  });
}

TEST(ArrayDestroyTest, ReleasesCapacity) {
  sim::Scheduler sched;
  ClusterConfig cfg = small_config();
  cfg.payload_mode = PayloadMode::digest;
  Cluster cluster(sched, cfg);
  run_client(cluster, [](Client& c) -> sim::Task<void> {
    const ObjectId oid = ObjectId::generate(5, 50, ObjectType::array, ObjectClass::S1);
    ContHandle cont = co_await c.main_cont_open();
    auto arr = (co_await c.array_create(cont, oid)).value();
    (co_await c.array_write(arr, 0, nullptr, 4_MiB)).expect_ok("write");
    EXPECT_EQ(c.cluster().pool_used(), 4_MiB);
    co_await c.array_close(arr);

    (co_await c.array_destroy(cont, oid)).expect_ok("destroy");
    EXPECT_EQ(c.cluster().pool_used(), 0u);
    EXPECT_EQ((co_await c.array_open(cont, oid)).status().code(), Errc::not_found);
    EXPECT_EQ((co_await c.array_destroy(cont, oid)).code(), Errc::not_found);
  });
}

TEST(ClientTest, PoolExhaustionReturnsNoSpace) {
  sim::Scheduler sched;
  ClusterConfig cfg = small_config();
  cfg.payload_mode = PayloadMode::digest;
  cfg.dcpmm.capacity = 1_MiB;  // tiny DCPMMs: 6 MiB per region
  Cluster cluster(sched, cfg);
  run_client(cluster, [](Client& c) -> sim::Task<void> {
    ContHandle main = co_await c.main_cont_open();
    Status last = Status::ok();
    for (std::size_t i = 0; i < 40 && last.is_ok(); ++i) {
      const ObjectId oid = ObjectId::generate(1, i, ObjectType::array, ObjectClass::S1);
      auto arr = co_await c.array_create(main, oid);
      auto handle = arr.value();
      last = co_await c.array_write(handle, 0, nullptr, 1_MiB);
    }
    EXPECT_EQ(last.code(), Errc::no_space);
  });
}

TEST(ClientTest, IoFailureInjection) {
  sim::Scheduler sched;
  ClusterConfig cfg = small_config();
  cfg.payload_mode = PayloadMode::digest;
  cfg.fault_spec.transient_error_rate = 1.0;  // every fault-checked op fails
  Cluster cluster(sched, cfg);
  run_client(cluster, [](Client& c) -> sim::Task<void> {
    ContHandle main = co_await c.main_cont_open();
    const ObjectId oid = ObjectId::generate(0, 5, ObjectType::array, ObjectClass::S1);
    EXPECT_EQ((co_await c.array_create(main, oid)).status().code(), Errc::io_error);
    KvHandle kv = co_await c.kv_open(main, ObjectId::generate(0, 6, ObjectType::key_value, ObjectClass::S1));
    EXPECT_EQ((co_await c.kv_put(kv, "k", "v")).code(), Errc::io_error);
    EXPECT_EQ((co_await c.kv_get(kv, "k")).status().code(), Errc::io_error);
  });
  EXPECT_EQ(cluster.fault_plan()->stats().transient_errors, 3u);
}

TEST(ClientTest, LargerTransfersAreMoreEfficient) {
  // Fig. 6 mechanism: per-op overhead amortises with object size.
  auto time_for = [](Bytes size) {
    sim::Scheduler sched;
    ClusterConfig cfg = small_config();
    cfg.payload_mode = PayloadMode::digest;
    Cluster cluster(sched, cfg);
    sim::TimePoint start_write = 0;
    const sim::TimePoint t = run_client(cluster, [&](Client& c) -> sim::Task<void> {
      ContHandle main = co_await c.main_cont_open();
      const ObjectId oid = ObjectId::generate(0, 7, ObjectType::array, ObjectClass::S1);
      auto arr = co_await c.array_create(main, oid);
      auto handle = arr.value();
      start_write = c.cluster().scheduler().now();
      (co_await c.array_write(handle, 0, nullptr, size)).expect_ok("write");
    });
    return t - start_write;
  };
  // A single uncontended client amortises only the fixed RPC overhead (a few
  // percent at 1 MiB); the full Fig. 6 effect needs the field-I/O stack under
  // contention and is asserted in the harness integration tests.
  const double bw1 = static_cast<double>(1_MiB) / sim::to_seconds(time_for(1_MiB));
  const double bw10 = static_cast<double>(10_MiB) / sim::to_seconds(time_for(10_MiB));
  EXPECT_GT(bw10, bw1 * 1.02);
}

// Striping property: the shard extents of a write must conserve bytes and
// stay within the object's stripe, for every class and size.
//
// gtest prints a StripeCase as a dump of its 16 bytes, and ctest names each
// case after that dump. The seven bytes after `oclass` used to be padding
// left uninitialised, so the names changed from one discovery to the next.
// `tag` fills them explicitly with the bytes of the names these cases are
// recorded under, which keeps every name fixed; the test never reads it.
struct StripeCase {
  ObjectClass oclass;
  std::array<std::uint8_t, 7> tag;
  Bytes size;
};
static_assert(sizeof(StripeCase) == 16 && offsetof(StripeCase, size) == 8,
              "StripeCase must have no padding, or its printed name varies");

class StripingProperty : public ::testing::TestWithParam<StripeCase> {};

TEST_P(StripingProperty, RoundTripAcrossClassesAndSizes) {
  const ObjectClass oclass = GetParam().oclass;
  const Bytes size = GetParam().size;
  sim::Scheduler sched;
  ClusterConfig cfg = small_config();
  cfg.server_nodes = 2;
  cfg.payload_mode = PayloadMode::full;
  Cluster cluster(sched, cfg);
  run_client(cluster, [oclass = oclass, size = size](Client& c) -> sim::Task<void> {
    ContHandle main = co_await c.main_cont_open();
    const ObjectId oid = ObjectId::generate(2, 11, ObjectType::array, oclass);
    auto arr = co_await c.array_create(main, oid);
    auto handle = arr.value();

    std::vector<std::uint8_t> data(size);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i % 251);
    (co_await c.array_write(handle, 0, data.data(), data.size())).expect_ok("write");

    std::vector<std::uint8_t> out(size);
    const auto n = co_await c.array_read(handle, 0, out.data(), out.size());
    EXPECT_EQ(n.value(), size);
    EXPECT_EQ(out, data);
  });
}

INSTANTIATE_TEST_SUITE_P(
    ClassesAndSizes, StripingProperty,
    ::testing::Values(
        StripeCase{ObjectClass::S1, {0x00, 0x01, 0x1B, 0x03, 0x3B, 0x2C, 0x00}, 1_MiB},
        StripeCase{ObjectClass::S1, {0xFF, 0x48, 0x00, 0x00, 0x00, 0xD0, 0xEF}, 5_MiB},
        StripeCase{ObjectClass::S2, {}, 1_MiB},
        StripeCase{ObjectClass::S2, {}, 10_MiB},
        StripeCase{ObjectClass::SX, {0x00, 0x01, 0x1B, 0x03, 0x1E, 0x09, 0x00}, 1_MiB},
        StripeCase{ObjectClass::SX, {0xDA, 0x48, 0x00, 0x00, 0x00, 0xD0, 0xCA}, 20_MiB},
        StripeCase{ObjectClass::SX, {}, 3_MiB + 123_KiB}));

// Contention property: concurrent writers to a shared KV serialise; the
// wall-clock must grow superlinearly versus independent KVs.
TEST(ContentionTest, SharedKvSlowerThanPrivateKvs) {
  auto run_with = [](bool shared) {
    sim::Scheduler sched;
    ClusterConfig cfg;
    cfg.server_nodes = 1;
    cfg.client_nodes = 1;
    cfg.payload_mode = PayloadMode::digest;
    Cluster cluster(sched, cfg);
    const int procs = 16;
    const int puts = 30;
    auto proc = [](Cluster& cl, int rank, bool shared_kv, int n_puts) -> sim::Task<void> {
      Client client(cl, cl.client_endpoint(0, static_cast<std::size_t>(rank)),
                    static_cast<std::uint64_t>(rank));
      ContHandle main = co_await client.main_cont_open();
      const std::uint64_t kv_id = shared_kv ? 0u : static_cast<std::uint64_t>(rank + 1);
      KvHandle kv = co_await client.kv_open(
          main, ObjectId::generate(9, kv_id, ObjectType::key_value, ObjectClass::SX));
      for (int i = 0; i < n_puts; ++i) {
        (co_await client.kv_put(kv, "k" + std::to_string(rank) + "." + std::to_string(i), "v"))
            .expect_ok("kv_put");
      }
    };
    for (int r = 0; r < procs; ++r) sched.spawn(proc(cluster, r, shared, puts));
    sched.run();
    return sched.now();
  };
  const sim::TimePoint shared_time = run_with(true);
  const sim::TimePoint private_time = run_with(false);
  // The exact ratio is a calibration outcome (Fig. 4); the invariant is that
  // shared-KV contention costs real time.
  EXPECT_GT(static_cast<double>(shared_time), static_cast<double>(private_time) * 1.25);
}

// Determinism: identical cluster + workload => identical simulated end time.
TEST(DeterminismTest, RepeatedRunsBitIdentical) {
  auto run_once = [] {
    sim::Scheduler sched;
    ClusterConfig cfg;
    cfg.server_nodes = 2;
    cfg.client_nodes = 2;
    cfg.payload_mode = PayloadMode::digest;
    cfg.seed = 42;
    Cluster cluster(sched, cfg);
    auto proc = [](Cluster& cl, std::size_t node, std::size_t rank) -> sim::Task<void> {
      Client client(cl, cl.client_endpoint(node, rank), node * 100 + rank);
      ContHandle main = co_await client.main_cont_open();
      for (std::size_t i = 0; i < 5; ++i) {
        const ObjectId oid =
            ObjectId::generate(static_cast<std::uint32_t>(node * 10 + rank), i, ObjectType::array,
                               ObjectClass::S1);
        auto arr = co_await client.array_create(main, oid);
        auto handle = arr.value();
        (co_await client.array_write(handle, 0, nullptr, 1_MiB)).expect_ok("write");
        co_await client.array_close(handle);
      }
    };
    for (std::size_t n = 0; n < 2; ++n) {
      for (std::size_t r = 0; r < 4; ++r) sched.spawn(proc(cluster, n, r));
    }
    sched.run();
    return sched.now();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace nws::daos
