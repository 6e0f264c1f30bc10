// Redundant object classes and permanent-failure rebuild (docs/FAULTS.md).
//
// Unit properties: engine-separated stripe placement for RP_*/EC_* classes,
// deterministic replacement routing after a pool-map exclusion.  The seeded
// sweep is the durability contract: kill up to p targets under EC_k+p (r-1
// under RP_r) mid-run and every field must still read back byte for byte, the
// rebuild must converge, and the pool map must report zero objects lost.
//
// Reproduce one sweep case with
//   NWS_REDUNDANCY_SEED=<seed> NWS_REDUNDANCY_COUNT=1 ./redundancy_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "daos/client.h"
#include "daos/cluster.h"
#include "fdb/field_io.h"
#include "fdb/field_key.h"
#include "harness/experiment.h"
#include "harness/field_bench.h"

namespace nws::bench {
namespace {

using nws::operator""_KiB;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  // NWSLINT(allow:determinism): replay-knob helper; every call site passes an NWS_* literal
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

// ---- placement properties ---------------------------------------------------

TEST(RedundantPlacementTest, StripeWidthMatchesClass) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, testbed_config(2, 1));
  const auto oid = [](daos::ObjectClass oc) {
    return daos::ObjectId::generate(1, 7, daos::ObjectType::array, oc);
  };
  EXPECT_EQ(cluster.stripe_targets(oid(daos::ObjectClass::RP_2)).size(), 2u);
  EXPECT_EQ(cluster.stripe_targets(oid(daos::ObjectClass::RP_3)).size(), 3u);
  EXPECT_EQ(cluster.stripe_targets(oid(daos::ObjectClass::EC_2P1)).size(), 3u);
  EXPECT_EQ(cluster.stripe_targets(oid(daos::ObjectClass::EC_4P2)).size(), 6u);
}

TEST(RedundantPlacementTest, StripeMembersNeverShareAnEngine) {
  // 2 servers x 2 engines = 4 engines: every RP_3 / EC_2P1 stripe must land
  // on 3 distinct engines, so one engine loss removes at most one member.
  sim::Scheduler sched;
  daos::Cluster cluster(sched, testbed_config(2, 1));
  for (std::uint64_t i = 0; i < 200; ++i) {
    for (const daos::ObjectClass oc : {daos::ObjectClass::RP_2, daos::ObjectClass::RP_3,
                                       daos::ObjectClass::EC_2P1}) {
      const auto oid = daos::ObjectId::generate(2, i, daos::ObjectType::array, oc);
      const auto stripe = cluster.stripe_targets(oid);
      std::set<std::size_t> engines;
      std::set<std::size_t> targets;
      for (const std::size_t t : stripe) {
        engines.insert(cluster.target(t).engine);
        targets.insert(t);
      }
      EXPECT_EQ(targets.size(), stripe.size()) << "duplicate target in stripe";
      EXPECT_EQ(engines.size(), stripe.size())
          << object_class_name(oc) << " stripe co-located two members on one engine";
      EXPECT_EQ(stripe, cluster.stripe_targets(oid));  // deterministic
    }
  }
}

TEST(RedundantPlacementTest, WideStripesUseEveryEngineBeforeReuse) {
  // EC_4P2 needs 6 members but a 2-server testbed only has 4 engines: the
  // walk must use all 4 engines before placing a second member on any.
  sim::Scheduler sched;
  daos::Cluster cluster(sched, testbed_config(2, 1));
  const auto oid =
      daos::ObjectId::generate(3, 11, daos::ObjectType::array, daos::ObjectClass::EC_4P2);
  const auto stripe = cluster.stripe_targets(oid);
  ASSERT_EQ(stripe.size(), 6u);
  std::set<std::size_t> engines;
  for (const std::size_t t : stripe) engines.insert(cluster.target(t).engine);
  EXPECT_EQ(engines.size(), 4u);
}

TEST(RedundantPlacementTest, ResolveStripeReroutesExcludedMember) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, testbed_config(1, 1));
  const auto oid =
      daos::ObjectId::generate(4, 13, daos::ObjectType::array, daos::ObjectClass::RP_3);
  const auto ideal = cluster.stripe_targets(oid);
  EXPECT_EQ(cluster.pool_map().version(), 1u);

  // No data on the excluded target: routing alone covers it — the member
  // reroutes to a live replacement outside the stripe and stays available.
  cluster.apply_permanent_failure(ideal[1]);
  EXPECT_EQ(cluster.pool_map().version(), 2u);
  EXPECT_FALSE(cluster.pool_map().alive(ideal[1]));
  const auto routes = cluster.resolve_stripe(oid);
  ASSERT_EQ(routes.size(), 3u);
  EXPECT_EQ(routes[0].target, ideal[0]);
  EXPECT_EQ(routes[2].target, ideal[2]);
  EXPECT_NE(routes[1].target, ideal[1]);
  EXPECT_TRUE(routes[1].available);
  EXPECT_FALSE(routes[1].lost);
  EXPECT_TRUE(cluster.pool_map().alive(routes[1].target));
  // Replacement avoids the surviving members' targets.
  EXPECT_NE(routes[1].target, ideal[0]);
  EXPECT_NE(routes[1].target, ideal[2]);
  // Idempotent: excluding the same target again changes nothing.
  cluster.apply_permanent_failure(ideal[1]);
  EXPECT_EQ(cluster.pool_map().version(), 2u);
  EXPECT_EQ(cluster.pool_map().stats().targets_excluded, 1u);
}

// ---- durability sweep -------------------------------------------------------

struct SweepTally {
  std::uint64_t rebuilt = 0;
  Bytes bytes_rebuilt = 0;
};

void run_kill_scenario(std::uint64_t seed, SweepTally& tally) {
  Rng rng(mix64(seed ^ 0xbadd15c0ull));
  constexpr daos::ObjectClass kClasses[] = {daos::ObjectClass::RP_2, daos::ObjectClass::RP_3,
                                            daos::ObjectClass::EC_2P1, daos::ObjectClass::EC_4P2};
  const daos::ObjectClass oc = kClasses[rng.next_below(4)];
  const std::size_t redundancy = daos::object_class_redundancy(oc);
  const std::size_t failures = 1 + rng.next_below(redundancy);

  daos::ClusterConfig cfg = testbed_config(1, 1);
  cfg.seed = mix64(seed);
  cfg.payload_mode = daos::PayloadMode::full;
  sim::Scheduler sched;
  daos::Cluster cluster(sched, cfg);

  // Victims: `failures` distinct targets, chosen before the run starts so
  // the scenario is a pure function of the seed.
  std::vector<std::size_t> victims;
  while (victims.size() < failures) {
    const std::size_t t = rng.next_below(cluster.target_count());
    if (std::find(victims.begin(), victims.end(), t) == victims.end()) victims.push_back(t);
  }

  constexpr std::uint32_t kFields = 12;
  constexpr Bytes kFieldSize = 64_KiB;
  std::uint32_t verified = 0;
  bool all_ok = true;

  auto body = [&]() -> sim::Task<void> {
    daos::Client client(cluster, cluster.client_endpoint(0, 0), 0);
    fdb::FieldIoConfig fcfg;
    fcfg.array_class = oc;
    fcfg.kv_class = daos::ObjectClass::RP_3;  // index survives 2 failures
    fdb::FieldIo io(client, fcfg, 0);
    (co_await io.init()).expect_ok("init");

    std::vector<fdb::FieldKey> keys;
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(kFieldSize));
    for (std::uint32_t i = 0; i < kFields; ++i) {
      fdb::FieldKey key;
      key.set("class", "rd").set("date", "20201224").set("step", std::to_string(i));
      keys.push_back(key);
      fill_field_payload(payload.data(), 0, kFieldSize, key.canonical());
      all_ok &= (co_await io.write(key, payload.data(), kFieldSize)).is_ok();
    }

    // Permanent failures fire while the reads below are in flight with the
    // rebuild, so degraded service actually gets exercised.
    for (const std::size_t victim : victims) cluster.apply_permanent_failure(victim);

    std::vector<std::uint8_t> buf(static_cast<std::size_t>(kFieldSize));
    for (const fdb::FieldKey& key : keys) {
      const auto n = co_await io.read(key, buf.data(), kFieldSize);
      if (!n.is_ok() || n.value() != kFieldSize) {
        all_ok = false;
        continue;
      }
      if (verify_field_payload(buf.data(), 0, kFieldSize, key.canonical())) ++verified;
    }
  };
  sched.spawn(body());
  sched.run();

  const std::string label = std::string(daos::object_class_name(oc)) + ", " +
                            std::to_string(failures) + " failure(s), seed " + std::to_string(seed);
  EXPECT_TRUE(all_ok) << label << ": an operation failed";
  EXPECT_EQ(verified, kFields) << label << ": payload mismatch after permanent failures";
  const daos::RebuildStats& stats = cluster.pool_map().stats();
  EXPECT_EQ(stats.objects_lost, 0u) << label << ": shards lost despite redundancy >= failures";
  EXPECT_EQ(stats.objects_rebuilt, stats.objects_degraded)
      << label << ": rebuild did not re-protect every degraded shard";
  EXPECT_TRUE(cluster.pool_map().rebuild_idle()) << label << ": rebuild queue not drained";
  EXPECT_EQ(stats.targets_excluded, failures);
  tally.rebuilt += stats.objects_rebuilt;
  tally.bytes_rebuilt += stats.bytes_rebuilt;
}

TEST(RedundancySweep, FieldsSurviveUpToRedundancyFailures) {
  const std::uint64_t base = env_u64("NWS_REDUNDANCY_SEED", 1);
  const std::uint64_t count = env_u64("NWS_REDUNDANCY_COUNT", 12);
  SweepTally tally;
  for (std::uint64_t seed = base; seed < base + count; ++seed) run_kill_scenario(seed, tally);
  if (std::getenv("NWS_REDUNDANCY_SEED") == nullptr) {
    // The sweep must actually exercise resilvering, not pass vacuously on
    // failures that only ever hit empty targets.  (Degraded service itself is
    // pinned deterministically by RedundancyDegradedReadTest — with 64 KiB
    // fields the rebuild window is ~100 us, so whether any sweep read lands
    // inside one is seed luck, not a contract.)
    EXPECT_GT(tally.rebuilt, 0u) << "no shard was ever rebuilt across the sweep";
    EXPECT_GT(tally.bytes_rebuilt, 0u);
  }
}

// ---- degraded service (deterministic) ---------------------------------------

TEST(RedundancyDegradedReadTest, ReplicatedReadServesFromSurvivorWhileRebuilding) {
  sim::Scheduler sched;
  daos::ClusterConfig cfg = testbed_config(1, 1);
  cfg.payload_mode = daos::PayloadMode::full;
  daos::Cluster cluster(sched, cfg);

  const auto oid = daos::ObjectId::generate(7, 1, daos::ObjectType::array, daos::ObjectClass::RP_2);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(64_KiB));
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 131);
  bool read_ok = false;
  bool bytes_match = false;

  auto body = [&]() -> sim::Task<void> {
    daos::Client client(cluster, cluster.client_endpoint(0, 0), 0);
    auto cont = co_await client.main_cont_open();
    auto handle = co_await client.array_create(cont, oid);
    (co_await client.array_write(handle.value(), 0, data.data(), 64_KiB)).expect_ok("write");

    // Kill the primary replica and read at the SAME sim instant: the rebuild
    // transfer needs >0 sim time, so the shard is still degraded and the read
    // must be served from the surviving replica (and be accounted degraded).
    cluster.apply_permanent_failure(cluster.stripe_targets(oid)[0]);
    EXPECT_EQ(cluster.pool_map().stats().objects_degraded, 1u);
    std::vector<std::uint8_t> out(data.size());
    const auto n = co_await client.array_read(handle.value(), 0, out.data(), 64_KiB);
    read_ok = n.is_ok() && n.value() == 64_KiB;
    bytes_match = out == data;
  };
  sched.spawn(body());
  sched.run();

  EXPECT_TRUE(read_ok);
  EXPECT_TRUE(bytes_match);
  const daos::RebuildStats& stats = cluster.pool_map().stats();
  EXPECT_GE(stats.degraded_reads, 1u) << "read during rebuild was not accounted degraded";
  EXPECT_EQ(stats.objects_lost, 0u);
  EXPECT_EQ(stats.objects_rebuilt, 1u);
  EXPECT_TRUE(cluster.pool_map().rebuild_idle());
}

TEST(RedundancyDegradedReadTest, ErasureCodedReadDecodesFromParityWhileRebuilding) {
  sim::Scheduler sched;
  daos::ClusterConfig cfg = testbed_config(1, 1);
  cfg.payload_mode = daos::PayloadMode::full;
  daos::Cluster cluster(sched, cfg);

  const auto oid =
      daos::ObjectId::generate(7, 2, daos::ObjectType::array, daos::ObjectClass::EC_2P1);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(64_KiB));
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 197);
  bool read_ok = false;
  bool bytes_match = false;

  auto body = [&]() -> sim::Task<void> {
    daos::Client client(cluster, cluster.client_endpoint(0, 0), 0);
    auto cont = co_await client.main_cont_open();
    auto handle = co_await client.array_create(cont, oid);
    (co_await client.array_write(handle.value(), 0, data.data(), 64_KiB)).expect_ok("write");

    // Kill data member 0: the read must reassign its chunks to the parity
    // member (decode) while the rebuild is still in flight.
    cluster.apply_permanent_failure(cluster.stripe_targets(oid)[0]);
    std::vector<std::uint8_t> out(data.size());
    const auto n = co_await client.array_read(handle.value(), 0, out.data(), 64_KiB);
    read_ok = n.is_ok() && n.value() == 64_KiB;
    bytes_match = out == data;
  };
  sched.spawn(body());
  sched.run();

  EXPECT_TRUE(read_ok);
  EXPECT_TRUE(bytes_match);
  const daos::RebuildStats& stats = cluster.pool_map().stats();
  EXPECT_GE(stats.degraded_reads, 1u) << "EC decode read was not accounted degraded";
  EXPECT_EQ(stats.objects_lost, 0u);
  EXPECT_EQ(stats.objects_rebuilt, 1u);
  EXPECT_TRUE(cluster.pool_map().rebuild_idle());
}

// ---- redundancy exhausted ---------------------------------------------------

TEST(RedundancyLossTest, SingleCopyShardOnLostTargetReportsDataLoss) {
  sim::Scheduler sched;
  daos::ClusterConfig cfg = testbed_config(1, 1);
  cfg.payload_mode = daos::PayloadMode::full;
  daos::Cluster cluster(sched, cfg);

  const auto oid = daos::ObjectId::generate(9, 1, daos::ObjectType::array, daos::ObjectClass::S1);
  Status write_status = Status::ok();
  Status read_status = Status::ok();
  auto body = [&]() -> sim::Task<void> {
    daos::Client client(cluster, cluster.client_endpoint(0, 0), 0);
    auto cont = co_await client.main_cont_open();
    auto handle = co_await client.array_create(cont, oid);
    std::vector<std::uint8_t> data(static_cast<std::size_t>(4_KiB), 0x5a);
    write_status = co_await client.array_write(handle.value(), 0, data.data(), 4_KiB);

    // Kill the single target holding the shard: no redundancy, so the data
    // is gone and the loss must be accounted, not silently re-routed.
    cluster.apply_permanent_failure(cluster.stripe_targets(oid)[0]);
    const auto n = co_await client.array_read(handle.value(), 0, data.data(), 4_KiB);
    read_status = n.is_ok() ? Status::ok() : n.status();
  };
  sched.spawn(body());
  sched.run();

  EXPECT_TRUE(write_status.is_ok());
  EXPECT_EQ(read_status.code(), Errc::data_loss);
  EXPECT_GE(cluster.pool_map().stats().objects_lost, 1u);
  EXPECT_TRUE(cluster.pool_map().rebuild_idle());  // nothing rebuildable queued
}

}  // namespace
}  // namespace nws::bench
