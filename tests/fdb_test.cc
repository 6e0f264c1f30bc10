// Unit, integration and property tests for the field I/O layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "daos/client.h"
#include "daos/cluster.h"
#include "daos/retry.h"
#include "fdb/field_io.h"
#include "fdb/field_key.h"

namespace nws::fdb {
namespace {

using nws::operator""_KiB;
using nws::operator""_MiB;

TEST(FieldKeyTest, CanonicalRenderingMatchesPaperExample) {
  FieldKey key;
  key.set("date", "20201224").set("class", "od");
  // Paper Section 4: the most-significant part reads
  // "'class': 'od', 'date': '20201224'" (schema order: class before date).
  EXPECT_EQ(key.most_significant(), "'class': 'od', 'date': '20201224'");
  EXPECT_EQ(key.least_significant(), "");
}

TEST(FieldKeyTest, SplitsForecastAndFieldParts) {
  FieldKey key;
  key.set("class", "od").set("date", "20201224").set("time", "0000");
  key.set("param", "t").set("level", "850").set("step", "24");
  EXPECT_EQ(key.most_significant(), "'class': 'od', 'date': '20201224', 'time': '0000'");
  EXPECT_EQ(key.least_significant(), "'level': '850', 'param': 't', 'step': '24'");
  EXPECT_EQ(key.canonical(), key.most_significant() + ", " + key.least_significant());
}

TEST(FieldKeyTest, GetSetOverwrite) {
  FieldKey key;
  key.set("param", "t");
  EXPECT_TRUE(key.has("param"));
  EXPECT_EQ(key.get("param").value(), "t");
  key.set("param", "z");
  EXPECT_EQ(key.get("param").value(), "z");
  EXPECT_EQ(key.get("level").status().code(), Errc::not_found);
  EXPECT_EQ(key.size(), 1u);
}

TEST(FieldKeyTest, ParseRoundTrip) {
  const auto parsed = FieldKey::parse("class=od,date=20201224,param=t,level=850");
  EXPECT_TRUE(parsed.is_ok());
  const FieldKey& key = parsed.value();
  EXPECT_EQ(key.get("class").value(), "od");
  EXPECT_EQ(key.get("level").value(), "850");
  EXPECT_EQ(key.size(), 4u);
}

TEST(FieldKeyTest, ParseRejectsMalformed) {
  EXPECT_EQ(FieldKey::parse("").status().code(), Errc::invalid);
  EXPECT_EQ(FieldKey::parse("novalue").status().code(), Errc::invalid);
  EXPECT_EQ(FieldKey::parse("=x").status().code(), Errc::invalid);
  EXPECT_EQ(FieldKey::parse("k=").status().code(), Errc::invalid);
}

TEST(ModeTest, Names) {
  EXPECT_STREQ(mode_name(Mode::full), "full");
  EXPECT_STREQ(mode_name(Mode::no_containers), "no containers");
  EXPECT_EQ(mode_by_name("no-index"), Mode::no_index);
  EXPECT_THROW(mode_by_name("bogus"), std::invalid_argument);
}

TEST(OidSerialisationTest, RoundTrip) {
  const daos::ObjectId oid =
      daos::ObjectId::generate(0xdeadbeefu, 0x0123456789abcdefull, daos::ObjectType::array,
                               daos::ObjectClass::S2);
  const auto parsed = oid_from_string(oid_to_string(oid));
  EXPECT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value(), oid);
  EXPECT_EQ(oid_from_string("garbage").status().code(), Errc::invalid);
}

// ---- integration fixtures ---------------------------------------------------

struct FieldIoFixture {
  sim::Scheduler sched;
  std::unique_ptr<daos::Cluster> cluster;

  explicit FieldIoFixture(daos::PayloadMode payload = daos::PayloadMode::full,
                          std::size_t servers = 1) {
    daos::ClusterConfig cfg;
    cfg.server_nodes = servers;
    cfg.client_nodes = 1;
    cfg.payload_mode = payload;
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

FieldKey example_key(int step = 24) {
  FieldKey key;
  key.set("class", "od").set("date", "20201224").set("time", "0000");
  key.set("param", "t").set("level", "850").set("step", std::to_string(step));
  return key;
}

class FieldIoModes : public ::testing::TestWithParam<Mode> {};

TEST_P(FieldIoModes, WriteReadRoundTrip) {
  const Mode mode = GetParam();
  FieldIoFixture fx;
  fx.run([mode](daos::Client& client) -> sim::Task<void> {
    FieldIoConfig cfg;
    cfg.mode = mode;
    FieldIo io(client, cfg, /*rank=*/0);
    (co_await io.init()).expect_ok("init");

    std::vector<std::uint8_t> field(1_MiB);
    for (std::size_t i = 0; i < field.size(); ++i) field[i] = static_cast<std::uint8_t>(i % 253);
    (co_await io.write(example_key(), field.data(), field.size())).expect_ok("write");

    std::vector<std::uint8_t> out(field.size());
    const auto n = co_await io.read(example_key(), out.data(), out.size());
    EXPECT_EQ(n.value(), field.size());
    EXPECT_EQ(out, field);

    EXPECT_EQ(io.stats().fields_written, 1u);
    EXPECT_EQ(io.stats().fields_read, 1u);
    EXPECT_EQ(io.stats().bytes_written, field.size());
  });
}

TEST_P(FieldIoModes, MissingFieldFails) {
  const Mode mode = GetParam();
  FieldIoFixture fx;
  fx.run([mode](daos::Client& client) -> sim::Task<void> {
    FieldIoConfig cfg;
    cfg.mode = mode;
    FieldIo io(client, cfg, 0);
    (co_await io.init()).expect_ok("init");
    const auto missing = co_await io.read(example_key(), nullptr, 1_MiB);
    EXPECT_EQ(missing.status().code(), Errc::not_found);
  });
}

TEST_P(FieldIoModes, MultipleFieldsPerForecast) {
  const Mode mode = GetParam();
  FieldIoFixture fx(daos::PayloadMode::digest);
  fx.run([mode](daos::Client& client) -> sim::Task<void> {
    FieldIoConfig cfg;
    cfg.mode = mode;
    FieldIo io(client, cfg, 0);
    (co_await io.init()).expect_ok("init");
    for (int step = 0; step < 20; ++step) {
      (co_await io.write(example_key(step), nullptr, 1_MiB)).expect_ok("write");
    }
    for (int step = 0; step < 20; ++step) {
      const auto n = co_await io.read(example_key(step), nullptr, 1_MiB);
      EXPECT_EQ(n.value(), 1_MiB) << "step " << step;
    }
  });
}

TEST_P(FieldIoModes, RewriteReturnsLatestData) {
  const Mode mode = GetParam();
  FieldIoFixture fx;
  fx.run([mode](daos::Client& client) -> sim::Task<void> {
    FieldIoConfig cfg;
    cfg.mode = mode;
    FieldIo io(client, cfg, 0);
    (co_await io.init()).expect_ok("init");

    std::vector<std::uint8_t> v1(256_KiB, 0x11);
    std::vector<std::uint8_t> v2(256_KiB, 0x22);
    (co_await io.write(example_key(), v1.data(), v1.size())).expect_ok("write v1");
    (co_await io.write(example_key(), v2.data(), v2.size())).expect_ok("write v2");

    std::vector<std::uint8_t> out(v2.size());
    const auto n = co_await io.read(example_key(), out.data(), out.size());
    EXPECT_EQ(n.value(), v2.size());
    EXPECT_EQ(out, v2);
  });
}

INSTANTIATE_TEST_SUITE_P(AllModes, FieldIoModes,
                         ::testing::Values(Mode::full, Mode::no_containers, Mode::no_index),
                         [](const auto& mode_info) {
                           switch (mode_info.param) {
                             case Mode::full: return "full";
                             case Mode::no_containers: return "no_containers";
                             case Mode::no_index: return "no_index";
                           }
                           return "unknown";
                         });

TEST(FieldIoSemantics, RewriteDereferencesOldArrayInIndexedModes) {
  // Section 4: "a new Array object is created and indexed, and the
  // previously existing one is de-referenced.  No read-modify-write is
  // performed upon re-write, and the functions do not delete de-referenced
  // objects by design."
  FieldIoFixture fx(daos::PayloadMode::digest);
  fx.run([&fx](daos::Client& client) -> sim::Task<void> {
    FieldIoConfig cfg;
    cfg.mode = Mode::no_containers;  // arrays land in the main container
    FieldIo io(client, cfg, 0);
    (co_await io.init()).expect_ok("init");

    (co_await io.write(example_key(), nullptr, 1_MiB)).expect_ok("write v1");
    const std::size_t arrays_after_first = fx.cluster->main_container().array_count();
    const Bytes used_after_first = fx.cluster->pool_used();

    (co_await io.write(example_key(), nullptr, 1_MiB)).expect_ok("write v2");
    // A new array exists; the old one was not deleted...
    EXPECT_EQ(fx.cluster->main_container().array_count(), arrays_after_first + 1);
    // ...and its capacity was not reclaimed.
    EXPECT_EQ(fx.cluster->pool_used(), used_after_first + 1_MiB);
  });
}

TEST(FieldIoSemantics, NoIndexRewriteOverwritesSameArray) {
  // In "no index" mode the md5-derived object id is stable, so a re-write
  // hits the same Array (paper 5.3: contention moves to the Array level).
  FieldIoFixture fx(daos::PayloadMode::digest);
  fx.run([&fx](daos::Client& client) -> sim::Task<void> {
    FieldIoConfig cfg;
    cfg.mode = Mode::no_index;
    FieldIo io(client, cfg, 0);
    (co_await io.init()).expect_ok("init");

    (co_await io.write(example_key(), nullptr, 1_MiB)).expect_ok("write v1");
    const std::size_t arrays_after_first = fx.cluster->main_container().array_count();
    (co_await io.write(example_key(), nullptr, 1_MiB)).expect_ok("write v2");
    EXPECT_EQ(fx.cluster->main_container().array_count(), arrays_after_first);
    EXPECT_EQ(fx.cluster->pool_used(), 1_MiB);  // overwrite, no growth
  });
}

TEST(FieldIoSemantics, FullModeCreatesForecastContainers) {
  FieldIoFixture fx(daos::PayloadMode::digest);
  fx.run([&fx](daos::Client& client) -> sim::Task<void> {
    FieldIoConfig cfg;
    cfg.mode = Mode::full;
    FieldIo io(client, cfg, 0);
    (co_await io.init()).expect_ok("init");
    EXPECT_EQ(fx.cluster->container_count(), 1u);  // main only
    (co_await io.write(example_key(), nullptr, 1_MiB)).expect_ok("write");
    // index + store containers for the forecast.
    EXPECT_EQ(fx.cluster->container_count(), 3u);
    // A second forecast creates another pair.
    FieldKey other = example_key();
    other.set("date", "20201225");
    (co_await io.write(other, nullptr, 1_MiB)).expect_ok("write other");
    EXPECT_EQ(fx.cluster->container_count(), 5u);
  });
}

TEST(FieldIoSemantics, NoContainersModeKeepsEverythingInMain) {
  FieldIoFixture fx(daos::PayloadMode::digest);
  fx.run([&fx](daos::Client& client) -> sim::Task<void> {
    FieldIoConfig cfg;
    cfg.mode = Mode::no_containers;
    FieldIo io(client, cfg, 0);
    (co_await io.init()).expect_ok("init");
    (co_await io.write(example_key(), nullptr, 1_MiB)).expect_ok("write");
    EXPECT_EQ(fx.cluster->container_count(), 1u);
    EXPECT_GT(fx.cluster->main_container().object_count(), 0u);
  });
}

TEST(FieldIoSemantics, ZeroLengthFieldRejected) {
  FieldIoFixture fx(daos::PayloadMode::digest);
  fx.run([](daos::Client& client) -> sim::Task<void> {
    FieldIo io(client, FieldIoConfig{}, 0);
    (co_await io.init()).expect_ok("init");
    EXPECT_EQ((co_await io.write(example_key(), nullptr, 0)).code(), Errc::invalid);
  });
}

TEST(FieldIoConcurrency, ConcurrentWritersToSameForecastCollideGracefully) {
  // Several processes writing fields of the *same* forecast must all
  // succeed: container creation races resolve via already_exists on the
  // md5-derived uuids (Section 4).
  FieldIoFixture fx(daos::PayloadMode::digest);
  const int procs = 8;
  int successes = 0;
  auto writer = [](daos::Cluster& cl, int rank, int* ok) -> sim::Task<void> {
    daos::Client client(cl, cl.client_endpoint(0, static_cast<std::size_t>(rank)),
                        static_cast<std::uint64_t>(rank));
    FieldIoConfig cfg;
    cfg.mode = Mode::full;
    FieldIo io(client, cfg, static_cast<std::uint32_t>(rank));
    (co_await io.init()).expect_ok("init");
    FieldKey key = example_key(rank);  // same forecast, distinct fields
    const Status st = co_await io.write(key, nullptr, 1_MiB);
    if (st.is_ok()) ++*ok;
  };
  for (int r = 0; r < procs; ++r) fx.sched.spawn(writer(*fx.cluster, r, &successes));
  fx.sched.run();
  EXPECT_EQ(successes, procs);
  // Exactly one pair of forecast containers despite the race.
  EXPECT_EQ(fx.cluster->container_count(), 3u);
}

TEST(FieldIoConcurrency, ReaderSeesWriterResultsAcrossProcesses) {
  FieldIoFixture fx(daos::PayloadMode::full);
  auto writer = [](daos::Cluster& cl) -> sim::Task<void> {
    daos::Client client(cl, cl.client_endpoint(0, 0), 0);
    FieldIo io(client, FieldIoConfig{}, 0);
    (co_await io.init()).expect_ok("init");
    std::vector<std::uint8_t> field(128_KiB, 0x7e);
    (co_await io.write(example_key(), field.data(), field.size())).expect_ok("write");
  };
  auto reader = [](daos::Cluster& cl) -> sim::Task<void> {
    daos::Client client(cl, cl.client_endpoint(0, 1), 1);
    FieldIo io(client, FieldIoConfig{}, 1);
    (co_await io.init()).expect_ok("init");
    // Poll until the writer's field appears (processes are unsynchronised).
    std::vector<std::uint8_t> out(128_KiB);
    for (int attempt = 0; attempt < 100; ++attempt) {
      const auto n = co_await io.read(example_key(), out.data(), out.size());
      if (n.is_ok()) {
        EXPECT_EQ(n.value(), 128_KiB);
        EXPECT_EQ(out[0], 0x7e);
        co_return;
      }
      co_await cl.scheduler().delay(sim::milliseconds(10));
    }
    ADD_FAILURE() << "field never became visible to the reader";
  };
  fx.sched.spawn(writer(*fx.cluster));
  fx.sched.spawn(reader(*fx.cluster));
  fx.sched.run();
}

TEST(FieldIoFaults, ContainerIssueSurfacesInFullMode) {
  // Fig. 5 emulation: full-mode runs fail beyond 8 server nodes when the
  // container issue is enabled; no-containers mode is unaffected.
  for (const Mode mode : {Mode::full, Mode::no_containers}) {
    sim::Scheduler sched;
    daos::ClusterConfig cfg;
    cfg.server_nodes = 10;
    cfg.client_nodes = 2;
    cfg.payload_mode = daos::PayloadMode::digest;
    cfg.faults.container_create_issue = true;
    cfg.faults.container_issue_threshold = 0;  // fail immediately at this scale
    daos::Cluster cluster(sched, cfg);
    Status result = Status::ok();
    auto proc = [](daos::Cluster& cl, Mode m, Status* out) -> sim::Task<void> {
      daos::Client client(cl, cl.client_endpoint(0, 0), 0);
      FieldIoConfig fcfg;
      fcfg.mode = m;
      FieldIo io(client, fcfg, 0);
      (co_await io.init()).expect_ok("init");
      *out = co_await io.write(example_key(), nullptr, 1_MiB);
    };
    sched.spawn(proc(cluster, mode, &result));
    sched.run();
    if (mode == Mode::full) {
      EXPECT_EQ(result.code(), Errc::unavailable) << "full mode should hit the container issue";
    } else {
      EXPECT_TRUE(result.is_ok()) << "no-containers mode does not create containers";
    }
  }
}

TEST(RetrierTest, BackoffNeverExceedsPolicyCap) {
  // Regression: the cap used to be applied before jitter, so a maxed-out
  // backoff jittered up to 1.5x past kRetryMaxBackoff.  The cap now bounds
  // the observable sleep.
  sim::Scheduler sched;
  daos::Cluster cluster(sched, daos::ClusterConfig{});
  daos::Client client(cluster, cluster.client_endpoint(0, 0), 0);
  daos::Retrier retrier(client, 1234);
  const sim::Duration cap = daos::kRetryMaxBackoff;  // 20 ms, jitter 0.5
  sim::Duration longest = 0;
  auto body = [&]() -> sim::Task<void> {
    for (int i = 0; i < 64; ++i) {
      // Attempt 12's raw exponential (~2 s) is far past the 20 ms cap, so a
      // jitter applied after capping would overshoot on most draws.
      const sim::TimePoint before = sched.now();
      co_await retrier.backoff(12);
      const sim::Duration slept = sched.now() - before;
      EXPECT_LE(slept, cap);
      longest = std::max(longest, slept);
    }
  };
  sched.spawn(body());
  sched.run();
  EXPECT_EQ(longest, cap);  // the cap is reached, not just approached
}

TEST(RetrierTest, CallReissuesTheSameOperation) {
  const daos::ObjectId oid =
      daos::ObjectId::generate(7, 1, daos::ObjectType::key_value, daos::ObjectClass::SX);
  // Every attempt fails: call() gives up after kRetryMaxAttempts attempts
  // of the one operation, backing off between them.
  {
    sim::Scheduler sched;
    daos::ClusterConfig cfg;
    cfg.fault_spec.transient_error_rate = 1.0;
    daos::Cluster cluster(sched, cfg);
    daos::Client client(cluster, cluster.client_endpoint(0, 0), 0);
    std::uint64_t retries = 0;
    daos::Retrier retrier(client, 1234, &retries);
    auto body = [&]() -> sim::Task<void> {
      daos::KvHandle kv = co_await client.kv_open(co_await client.main_cont_open(), oid);
      const Status st = co_await retrier.call(&daos::Client::kv_put, kv, std::string("k"),
                                              std::string("v"));
      EXPECT_EQ(st.code(), Errc::io_error);
    };
    sched.spawn(body());
    sched.run();
    EXPECT_EQ(client.stats().transient_errors, daos::kRetryMaxAttempts);
    EXPECT_EQ(retries, daos::kRetryMaxAttempts - 1);
    EXPECT_EQ(client.stats().op_retries, daos::kRetryMaxAttempts - 1);
    EXPECT_EQ(client.stats().kv_puts, 0u);
  }
  // Fault-free: a temporary key lives through the call, which succeeds at
  // the first attempt.
  {
    sim::Scheduler sched;
    daos::Cluster cluster(sched, daos::ClusterConfig{});
    daos::Client client(cluster, cluster.client_endpoint(0, 0), 0);
    std::uint64_t retries = 0;
    daos::Retrier retrier(client, 1234, &retries);
    auto body = [&]() -> sim::Task<void> {
      daos::KvHandle kv = co_await client.kv_open(co_await client.main_cont_open(), oid);
      (co_await client.kv_put(kv, "k", "v")).expect_ok("kv_put");
      const Result<std::string> got =
          co_await retrier.call(&daos::Client::kv_get, kv, std::string("k"));
      EXPECT_TRUE(got.is_ok()) << got.status().to_string();
      EXPECT_EQ(got.value_or(""), "v");
    };
    sched.spawn(body());
    sched.run();
    EXPECT_EQ(retries, 0u);
    EXPECT_EQ(client.stats().op_retries, 0u);
  }
  // Half the attempts fail: a retried put still stores the value it was
  // given, because no attempt moves from the arguments.
  {
    sim::Scheduler sched;
    daos::ClusterConfig cfg;
    cfg.fault_spec.transient_error_rate = 0.5;
    daos::Cluster cluster(sched, cfg);
    daos::Client client(cluster, cluster.client_endpoint(0, 0), 0);
    std::uint64_t retries = 0;
    daos::Retrier retrier(client, 1234, &retries);
    auto body = [&]() -> sim::Task<void> {
      daos::KvHandle kv = co_await client.kv_open(co_await client.main_cont_open(), oid);
      for (int i = 0; i < 8; ++i) {
        const std::string key = "k" + std::to_string(i);
        const Status put = co_await retrier.call(&daos::Client::kv_put, kv, key,
                                                 "value-" + std::to_string(i));
        EXPECT_TRUE(put.is_ok()) << put.to_string();
        const Result<std::string> got = co_await retrier.call(&daos::Client::kv_get, kv, key);
        EXPECT_EQ(got.value_or(""), "value-" + std::to_string(i));
      }
    };
    sched.spawn(body());
    sched.run();
    EXPECT_GT(retries, 0u);
  }
}

}  // namespace
}  // namespace nws::fdb
