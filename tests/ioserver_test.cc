// Tests for the model -> I/O server -> object store pipeline.
#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "ioserver/ioserver.h"

namespace nws::ioserver {
namespace {

using nws::operator""_KiB;
using nws::operator""_MiB;

PipelineConfig small_pipeline() {
  PipelineConfig cfg;
  cfg.model_processes = 16;
  cfg.io_servers = 4;
  cfg.steps = 2;
  cfg.fields_per_step = 6;
  cfg.field_size = 1_MiB;
  return cfg;
}

TEST(PipelineTest, StoresEveryField) {
  // 3 does not divide the field size: the remainder bytes must land too.
  for (const std::size_t model_processes : {16u, 3u}) {
    SCOPED_TRACE(model_processes);
    sim::Scheduler sched;
    daos::Cluster cluster(sched, bench::testbed_config(1, 2));
    PipelineConfig cfg = small_pipeline();
    cfg.model_processes = model_processes;
    const PipelineResult result = run_pipeline(cluster, cfg);
    ASSERT_FALSE(result.failed) << result.failure;
    EXPECT_EQ(result.fields_stored, cfg.steps * cfg.fields_per_step);
    EXPECT_EQ(result.parts_received,
              static_cast<std::uint64_t>(cfg.steps) * cfg.fields_per_step * cfg.model_processes);
    EXPECT_EQ(result.store_log.operations(), cfg.steps * cfg.fields_per_step);
    EXPECT_EQ(result.store_log.total_bytes(),
              Bytes{cfg.steps} * cfg.fields_per_step * cfg.field_size);
    EXPECT_GT(result.makespan, 0);
  }
}

TEST(PipelineTest, StoredFieldsAreReadable) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, bench::testbed_config(1, 2));
  const PipelineConfig cfg = small_pipeline();
  const PipelineResult result = run_pipeline(cluster, cfg);
  ASSERT_FALSE(result.failed);

  // A product-generation process must find every field.
  int found = 0;
  auto reader = [](daos::Cluster& cl, const PipelineConfig c, int* out) -> sim::Task<void> {
    daos::Client client(cl, cl.client_endpoint(0, 0), 0xabc);
    fdb::FieldIoConfig fcfg;
    fcfg.mode = c.mode;
    fdb::FieldIo io(client, fcfg, 0xabc);
    (co_await io.init()).expect_ok("reader init");
    for (std::uint32_t step = 0; step < c.steps; ++step) {
      for (std::uint32_t f = 0; f < c.fields_per_step; ++f) {
        fdb::FieldKey key;
        key.set("class", "od").set("stream", "oper").set("date", "20260705").set("time", "0000");
        key.set("step", std::to_string(step));
        key.set("param", std::to_string(f));
        const auto n = co_await io.read(key, nullptr, c.field_size);
        if (n.is_ok() && n.value() == c.field_size) ++*out;
      }
    }
  };
  sched.spawn(reader(cluster, cfg, &found));
  sched.run();
  EXPECT_EQ(found, static_cast<int>(cfg.steps * cfg.fields_per_step));
}

TEST(PipelineTest, AggregationAvoidsMassiveParallelStorageIo) {
  // The pipeline's point (paper 1.2): storage sees one writer per I/O
  // server, not one per model process.
  sim::Scheduler sched;
  daos::Cluster cluster(sched, bench::testbed_config(1, 2));
  PipelineConfig cfg = small_pipeline();
  cfg.model_processes = 32;
  cfg.io_servers = 2;
  const PipelineResult result = run_pipeline(cluster, cfg);
  ASSERT_FALSE(result.failed);
  // Store operations come only from the 2 server ranks.
  for (const auto& record : result.store_log.detail()) {
    EXPECT_LT(record.proc, 2u);
  }
  EXPECT_EQ(result.fields_stored, cfg.steps * cfg.fields_per_step);
}

TEST(PipelineTest, EncodeRateBoundsThroughput) {
  // With a very slow encoder, the pipeline becomes encode-bound: halving
  // the encode rate roughly doubles the makespan.
  auto makespan_with = [](double rate) {
    sim::Scheduler sched;
    daos::Cluster cluster(sched, bench::testbed_config(1, 2));
    PipelineConfig cfg = small_pipeline();
    cfg.io_servers = 1;  // single encoder: strictly serial encode
    cfg.encode_rate = rate;
    const PipelineResult result = run_pipeline(cluster, cfg);
    EXPECT_FALSE(result.failed);
    return sim::to_seconds(result.makespan);
  };
  const double slow = makespan_with(gib_per_sec(0.05));
  const double slower = makespan_with(gib_per_sec(0.025));
  EXPECT_NEAR(slower / slow, 2.0, 0.35);
}

TEST(PipelineTest, InvalidConfigsFailGracefully) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, bench::testbed_config(1, 1));
  PipelineConfig cfg = small_pipeline();
  cfg.io_servers = 0;
  EXPECT_TRUE(run_pipeline(cluster, cfg).failed);

  sim::Scheduler sched2;
  daos::Cluster cluster2(sched2, bench::testbed_config(1, 1));
  cfg = small_pipeline();
  cfg.model_processes = 4096;
  cfg.field_size = 1_KiB;  // part size would be zero
  EXPECT_TRUE(run_pipeline(cluster2, cfg).failed);
}

TEST(PipelineTest, DeterministicMakespan) {
  auto run_once = [] {
    sim::Scheduler sched;
    daos::Cluster cluster(sched, bench::testbed_config(1, 2));
    return run_pipeline(cluster, small_pipeline()).makespan;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace nws::ioserver
