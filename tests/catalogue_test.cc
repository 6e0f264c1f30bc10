// Tests for the store catalogue.
#include <gtest/gtest.h>

#include "daos/client.h"
#include "daos/cluster.h"
#include "fault/fault_plan.h"
#include "fdb/catalogue.h"
#include "fdb/field_io.h"

namespace nws::fdb {
namespace {

using nws::operator""_KiB;
using nws::operator""_MiB;

struct Fixture {
  sim::Scheduler sched;
  std::unique_ptr<daos::Cluster> cluster;

  Fixture() {
    daos::ClusterConfig cfg;
    cfg.server_nodes = 1;
    cfg.client_nodes = 1;
    cfg.payload_mode = daos::PayloadMode::digest;
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

FieldKey key_for(const std::string& date, int step) {
  FieldKey key;
  key.set("class", "od").set("date", date).set("time", "0000");
  key.set("param", "t").set("step", std::to_string(step));
  return key;
}

class CatalogueModes : public ::testing::TestWithParam<Mode> {};

TEST_P(CatalogueModes, ListsForecastsAndFields) {
  const Mode mode = GetParam();
  Fixture fx;
  fx.run([mode](daos::Client& client) -> sim::Task<void> {
    FieldIoConfig cfg;
    cfg.mode = mode;
    FieldIo io(client, cfg, 0);
    (co_await io.init()).expect_ok("init");
    // Two forecasts, 3 and 2 fields.
    for (int step = 0; step < 3; ++step) {
      (co_await io.write(key_for("20260701", step), nullptr, 1_MiB)).expect_ok("write");
    }
    for (int step = 0; step < 2; ++step) {
      (co_await io.write(key_for("20260702", step), nullptr, 2_MiB)).expect_ok("write");
    }

    Catalogue catalogue(client, cfg);
    (co_await catalogue.init()).expect_ok("catalogue init");
    auto forecasts = co_await catalogue.list_forecasts();
    EXPECT_TRUE(forecasts.is_ok());
    EXPECT_EQ(forecasts.value().size(), 2u);
    Bytes total = 0;
    for (const ForecastEntry& f : forecasts.value()) {
      if (f.forecast_key.find("20260701") != std::string::npos) {
        EXPECT_EQ(f.field_count, 3u);
        EXPECT_EQ(f.total_bytes, 3_MiB);
      } else {
        EXPECT_EQ(f.field_count, 2u);
        EXPECT_EQ(f.total_bytes, 4_MiB);
      }
      total += f.total_bytes;
    }
    EXPECT_EQ(total, 7_MiB);

    auto fields = co_await catalogue.list_fields(forecasts.value()[0].forecast_key);
    EXPECT_TRUE(fields.is_ok());
    for (const FieldEntry& field : fields.value()) {
      EXPECT_FALSE(field.field_key.empty());
      EXPECT_GT(field.size, 0u);
    }
  });
}

TEST_P(CatalogueModes, RewriteKeepsListedBytesStable) {
  // Re-writes orphan the old array: pool usage grows, but the catalogue
  // lists only the live generation (Section 4's no-delete design).
  const Mode mode = GetParam();
  Fixture fx;
  fx.run([mode, &fx](daos::Client& client) -> sim::Task<void> {
    FieldIoConfig cfg;
    cfg.mode = mode;
    FieldIo io(client, cfg, 0);
    (co_await io.init()).expect_ok("init");
    for (int i = 0; i < 3; ++i) {
      (co_await io.write(key_for("20260701", 0), nullptr, 1_MiB)).expect_ok("write");
    }
    Catalogue catalogue(client, cfg);
    (co_await catalogue.init()).expect_ok("catalogue init");
    const auto forecasts = co_await catalogue.list_forecasts();
    EXPECT_TRUE(forecasts.is_ok());
    EXPECT_EQ(forecasts.value().size(), 1u);
    EXPECT_EQ(forecasts.value()[0].field_count, 1u);
    EXPECT_EQ(forecasts.value()[0].total_bytes, 1_MiB);
    EXPECT_EQ(fx.cluster->pool_used(), 3_MiB);  // two orphaned generations
  });
}

INSTANTIATE_TEST_SUITE_P(IndexedModes, CatalogueModes,
                         ::testing::Values(Mode::full, Mode::no_containers),
                         [](const auto& mode_info) {
                           return mode_info.param == Mode::full ? "full" : "no_containers";
                         });

TEST(CatalogueTest, NoIndexModeUnsupported) {
  Fixture fx;
  fx.run([](daos::Client& client) -> sim::Task<void> {
    FieldIoConfig cfg;
    cfg.mode = Mode::no_index;
    Catalogue catalogue(client, cfg);
    EXPECT_EQ((co_await catalogue.init()).code(), Errc::unsupported);
  });
}

TEST(CatalogueTest, UnknownForecastFails) {
  Fixture fx;
  fx.run([](daos::Client& client) -> sim::Task<void> {
    Catalogue catalogue(client, FieldIoConfig{});
    (co_await catalogue.init()).expect_ok("init");
    const auto missing = co_await catalogue.list_fields("'class': 'od', 'date': '19990101'");
    EXPECT_EQ(missing.status().code(), Errc::not_found);
    EXPECT_TRUE((co_await catalogue.list_forecasts()).value().empty());
  });
}

TEST(CatalogueChaosTest, ListingSurvivesInjectedFaults) {
  // Catalogue operations run under the same retry policy as FieldIo, so
  // administrative sweeps complete despite dropped RPCs, transient errors
  // and target outage/slowdown windows (all seeded, hence reproducible).
  sim::Scheduler sched;
  daos::ClusterConfig cfg;
  cfg.server_nodes = 1;
  cfg.client_nodes = 1;
  cfg.payload_mode = daos::PayloadMode::digest;
  cfg.fault_spec = fault::FaultSpec::default_chaos(11);
  cfg.fault_spec.rpc_drop_rate = 0.05;
  cfg.fault_spec.transient_error_rate = 0.1;
  daos::Cluster cluster(sched, cfg);
  sched.spawn([](daos::Cluster& cl) -> sim::Task<void> {
    daos::Client client(cl, cl.client_endpoint(0, 0), 0);
    const FieldIoConfig io_cfg;  // full mode
    FieldIo io(client, io_cfg, 0);
    (co_await io.init()).expect_ok("init");
    // Forecast 1: three fields, each written twice (one orphan per field).
    for (int gen = 0; gen < 2; ++gen) {
      for (int step = 0; step < 3; ++step) {
        (co_await io.write(key_for("20260701", step), nullptr, 1_MiB)).expect_ok("write");
      }
    }
    // Forecast 2: two fields, no re-writes.
    for (int step = 0; step < 2; ++step) {
      (co_await io.write(key_for("20260702", step), nullptr, 2_MiB)).expect_ok("write");
    }

    Catalogue catalogue(client, io_cfg);
    (co_await catalogue.init()).expect_ok("catalogue init");
    const auto forecasts = co_await catalogue.list_forecasts();
    EXPECT_TRUE(forecasts.is_ok()) << forecasts.status().to_string();
    if (!forecasts.is_ok()) co_return;
    EXPECT_EQ(forecasts.value().size(), 2u);
    std::string rewritten;
    for (const ForecastEntry& f : forecasts.value()) {
      if (f.forecast_key.find("20260701") != std::string::npos) {
        rewritten = f.forecast_key;
        EXPECT_EQ(f.field_count, 3u);
        EXPECT_EQ(f.total_bytes, 3_MiB);  // live generations only, sizes intact
      } else {
        EXPECT_EQ(f.field_count, 2u);
        EXPECT_EQ(f.total_bytes, 4_MiB);
      }
    }
    EXPECT_FALSE(rewritten.empty());
    if (rewritten.empty()) co_return;
    const auto fields = co_await catalogue.list_fields(rewritten);
    EXPECT_TRUE(fields.is_ok()) << fields.status().to_string();
    if (fields.is_ok()) {
      EXPECT_EQ(fields.value().size(), 3u);
    }


    // The chaos actually bit: operations were re-driven by the retry layer.
    EXPECT_GT(client.stats().op_retries, 0u);
    EXPECT_GT(catalogue.retries(), 0u);
  }(cluster));
  sched.run();
}

}  // namespace
}  // namespace nws::fdb
