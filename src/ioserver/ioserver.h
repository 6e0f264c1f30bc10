// The NWP model-to-storage I/O pipeline.
//
// Paper Section 1.2: "The data is generated by all [model] processes in a
// distributed manner, and it is sent through the low-latency interconnect
// to I/O servers, where it is aggregated.  ...  After aggregation and data
// encoding, these servers forward the data to the HPC storage system.  This
// way, massive parallel I/O from simulation processes to HPC storage is
// avoided."
//
// This module implements that pipeline on the simulation substrate:
//
//   model processes --(fabric flows)--> I/O servers --(encode)--> FieldIo
//
// Each weather field is decomposed across the model processes (every
// process owns a share of the grid); the owning processes send their parts
// to the field's designated I/O server, which assembles the field, pays the
// GRIB encoding cost, and stores it through the field I/O functions.  The
// aggregation fan-in, the encode compute and the store write are all
// simulated-time costs, so the pipeline exposes exactly the bottleneck
// structure the paper describes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "daos/client.h"
#include "daos/cluster.h"
#include "fdb/field_io.h"
#include "obs/io_log.h"
#include "sim/sync.h"

namespace nws::ioserver {

struct PipelineConfig {
  /// Simulated model processes (the paper's model spans ~2500 nodes; scale
  /// to taste — each contributes a slice of every field).
  std::size_t model_processes = 64;
  /// I/O server processes; the paper devotes ~250 nodes to them.  Servers
  /// run on the cluster's client nodes, round-robin.
  std::size_t io_servers = 8;
  std::uint32_t steps = 4;
  std::uint32_t fields_per_step = 16;
  Bytes field_size = 1_MiB;
  /// GRIB encode throughput per I/O server process (CPU-bound).
  double encode_rate = gib_per_sec(1.5);
  fdb::Mode mode = fdb::Mode::full;
  daos::ObjectClass array_class = daos::ObjectClass::S1;
  /// Invoked (on the storing server's coroutine, at simulated store-complete
  /// time) after each successful field store — the in-sim notification
  /// channel downstream consumers (src/pgen) subscribe to.
  std::function<void(const fdb::FieldKey& key, Bytes size)> on_field_stored;
  /// Publish each completed forecast step with FieldIo::commit()
  /// (docs/EPOCHS.md): once all fields_per_step fields of a step are
  /// stored, the server that stored the last one commits the forecast, so
  /// consumers can pin a consistent view of steps <= N while step N+1
  /// streams in.
  bool commit_steps = false;
  /// Invoked after a step's commit with the step and its publication epoch.
  std::function<void(std::uint32_t step, daos::Epoch epoch)> on_step_committed;
};

struct PipelineResult {
  bench::IoLog store_log{4096};  // field writes (detail retained for inspection)
  sim::Duration makespan = 0;    // full pipeline wall-clock
  std::uint64_t fields_stored = 0;
  std::uint64_t parts_received = 0;
  /// Steps published through FieldIo::commit() (commit_steps runs).
  std::uint64_t steps_committed = 0;
  /// DAOS client and field-I/O counters summed over the I/O servers (each
  /// server flushes before exiting) — feeds the run's metrics snapshot.
  daos::ClientStats client_stats;
  fdb::FieldIoStats field_stats;
  bool failed = false;
  std::string failure;
};

/// The key the pipeline stores field `field` of `step` under (one scaled
/// forecast per run).  Exposed so downstream consumers can enumerate the
/// fields a pipeline run will produce.
fdb::FieldKey pipeline_key(std::uint32_t step, std::uint32_t field);

/// The model-output pipeline as a spawnable subsystem: spawn() registers the
/// server/producer coroutines on the cluster's scheduler *without* running
/// it, so other subsystems (e.g. the pgen consumer fleet) can share the same
/// simulated run.  The caller drives `cluster.scheduler().run()`.
class PipelineRun {
 public:
  PipelineRun(daos::Cluster& cluster, PipelineConfig config);
  ~PipelineRun();
  PipelineRun(const PipelineRun&) = delete;
  PipelineRun& operator=(const PipelineRun&) = delete;

  /// Validates the config and spawns the pipeline coroutines.  `on_done`
  /// (optional) fires when the last I/O server drains, before the scheduler
  /// runs out of events — e.g. to signal consumers that no further fields
  /// will land.
  Status spawn(std::function<void()> on_done = {});

  /// The accumulated result; complete once every I/O server has drained and
  /// flushed its stats (makespan covers spawn() to the last server exit).
  [[nodiscard]] PipelineResult& result();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Runs the model-output pipeline for one (scaled) forecast on `cluster`.
/// Model processes are placed on the cluster's client nodes alongside the
/// I/O servers (distinct process slots).
PipelineResult run_pipeline(daos::Cluster& cluster, const PipelineConfig& config);

}  // namespace nws::ioserver
