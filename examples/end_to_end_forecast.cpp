// End-to-end forecast output: archive -> catalogue -> retrieve -> verify,
// then the model -> I/O-server aggregation pipeline.
//
// Exercises the full stack the paper describes for one miniature forecast:
// twelve 1 MiB fields (three steps of four parameters, the field size of
// paper 1.2) are archived into the DAOS-backed field store (fdb on daos),
// listed with the catalogue, then retrieved and verified byte for byte
// against their deterministic per-key payloads.  Part 2 pushes the same
// field count through the model -> I/O-server aggregation pipeline
// (ioserver).  Exits non-zero when a read-back fails verification or the
// pipeline fails.
//
//   $ ./examples/end_to_end_forecast
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>

#include "daos/client.h"
#include "daos/cluster.h"
#include "fdb/catalogue.h"
#include "fdb/field_io.h"
#include "harness/field_bench.h"
#include "ioserver/ioserver.h"

using namespace nws;

namespace {

constexpr std::uint32_t kSteps = 3;
constexpr const char* kParams[] = {"t", "z", "u", "q"};
constexpr Bytes kFieldSize = 1_MiB;

fdb::FieldKey key_for(std::uint32_t step, const char* param) {
  fdb::FieldKey key;
  key.set("class", "od").set("stream", "oper").set("date", "20260705").set("time", "0000");
  key.set("step", std::to_string(step));
  key.set("param", param);
  key.set("levtype", "pl").set("level", "850");
  return key;
}

sim::Task<void> forecast(daos::Cluster& cluster, bool& verified) {
  daos::Client client(cluster, cluster.client_endpoint(0, 0), 0);
  fdb::FieldIoConfig cfg;  // full mode: the operational layout
  fdb::FieldIo io(client, cfg, 0);
  (co_await io.init()).expect_ok("init");
  const auto buffer = std::make_unique_for_overwrite<std::uint8_t[]>(kFieldSize);

  // --- archive three steps of four parameters ------------------------------
  for (std::uint32_t step = 0; step < kSteps; ++step) {
    for (const char* param : kParams) {
      const fdb::FieldKey key = key_for(step, param);
      bench::fill_field_payload(buffer.get(), 0, kFieldSize, key.canonical());
      (co_await io.write(key, buffer.get(), kFieldSize)).expect_ok("archive");
    }
  }
  std::printf("archived: %llu fields, %s, in %.2f s simulated\n",
              static_cast<unsigned long long>(io.stats().fields_written),
              format_bytes(io.stats().bytes_written).c_str(),
              sim::to_seconds(cluster.scheduler().now()));

  // --- catalogue ----------------------------------------------------------
  fdb::Catalogue catalogue(client, cfg);
  (co_await catalogue.init()).expect_ok("catalogue");
  const auto forecasts = (co_await catalogue.list_forecasts()).value();
  for (const auto& fc : forecasts) {
    std::printf("catalogue: forecast %s -> %zu fields, %s\n", fc.forecast_key.c_str(),
                fc.field_count, format_bytes(fc.total_bytes).c_str());
  }

  // --- retrieve + verify --------------------------------------------------
  verified = true;
  for (std::uint32_t step = 0; step < kSteps; ++step) {
    for (const char* param : kParams) {
      const fdb::FieldKey key = key_for(step, param);
      const Bytes n = (co_await io.read(key, buffer.get(), kFieldSize)).value();
      verified = verified && n == kFieldSize &&
                 bench::verify_field_payload(buffer.get(), 0, n, key.canonical());
    }
  }
  std::printf("retrieved: %llu fields, %s -> %s\n",
              static_cast<unsigned long long>(io.stats().fields_read),
              format_bytes(io.stats().bytes_read).c_str(), verified ? "verified" : "MISMATCH");
}

}  // namespace

int main() {
  sim::Scheduler sched;
  daos::ClusterConfig cfg;
  cfg.server_nodes = 1;
  cfg.client_nodes = 2;
  cfg.payload_mode = daos::PayloadMode::full;  // keep real bytes to verify
  daos::Cluster cluster(sched, cfg);

  // Part 1: direct archive/retrieve round trip with real payload bytes.
  bool verified = false;
  sched.spawn(forecast(cluster, verified));
  sched.run();

  // Part 2: the same fields through the model -> I/O-server pipeline.
  sim::Scheduler sched2;
  daos::ClusterConfig cfg2;
  cfg2.server_nodes = 1;
  cfg2.client_nodes = 2;
  daos::Cluster cluster2(sched2, cfg2);
  ioserver::PipelineConfig pipeline;
  pipeline.model_processes = 32;
  pipeline.io_servers = 4;
  pipeline.steps = kSteps;
  pipeline.fields_per_step = static_cast<std::uint32_t>(std::size(kParams));
  const ioserver::PipelineResult result = ioserver::run_pipeline(cluster2, pipeline);
  std::printf("pipeline: %llu fields aggregated from %zu model procs via %zu I/O servers "
              "in %.2f s simulated (store bandwidth %s)\n",
              static_cast<unsigned long long>(result.fields_stored), pipeline.model_processes,
              pipeline.io_servers, sim::to_seconds(result.makespan),
              format_bandwidth(result.store_log.global_timing_bandwidth()).c_str());
  return verified && !result.failed ? 0 : 1;
}
