// Product-generation/dissemination serving tier.
//
// The paper's pipeline ends at the store; ECMWF's operational reality is the
// downstream half: product generation reads fields back out *while the model
// is still writing* ("Reducing the Impact of I/O Contention in NWP Workflows
// at Scale Using DAOS", PAPERS.md).  This module models that dissemination
// load on the simulation substrate:
//
//   write pipeline (ioserver) ──> DAOS store ──> consumer fleet (this file)
//                     └── in-sim notifications ──┘     │
//        catalogue polling <────────────────────────────┘
//
// N product workers discover fields as they land — via catalogue polling at
// a configurable interval, plus an optional notification channel wired to
// ioserver::PipelineConfig::on_field_stored — and read every field through
// fdb::FieldIo.  Reads on one client node share a FieldCache (residency +
// single-flight coalescing, field_cache.h) and an AdmissionController
// (bounded in-flight budget with a round-robin fairness queue, admission.h).
//
// Everything runs inside one deterministic scheduler, so a write pipeline
// and a consumer fleet sharing the cluster contend for the same simulated
// fabric/target/SCM links — exactly the write-path interference the
// fig_contention_serving bench sweeps.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "daos/cluster.h"
#include "fdb/field_io.h"
#include "harness/experiment.h"
#include "obs/io_log.h"
#include "ioserver/ioserver.h"
#include "obs/metrics.h"
#include "pgen/admission.h"
#include "pgen/field_cache.h"

namespace nws::pgen {

struct ServingConfig {
  /// Product workers, placed round-robin over the cluster's client nodes.
  std::size_t consumers = 8;
  /// Catalogue poll cadence of the discovery loop (must be positive).
  sim::Duration poll_interval = sim::milliseconds(2.0);
  /// Subscribe to the write path's in-sim notification channel in addition
  /// to polling (off: polling is the only discovery mechanism).
  bool use_notifications = true;
  /// Time-travel serving (docs/EPOCHS.md): consumers only read *published*
  /// forecast state.  Discovered fields are held until the write pipeline
  /// commits their step (notify_committed, wired to
  /// ioserver::PipelineConfig::on_step_committed); each read then pins the
  /// step's publication epoch, so consumers see a stable committed snapshot
  /// while the next step streams in.  A retired pin (retention overtook the
  /// epoch) falls back to a live read, counted in
  /// ServingResult::snapshot_fallbacks.  Requires use_notifications.
  bool snapshot_reads = false;
  CacheConfig cache;          // per client node
  AdmissionConfig admission;  // per client node
  fdb::FieldIoConfig field_io;
};

struct ServingResult {
  bench::IoLog read_log;  // actual DAOS reads (cache hits excluded)
  std::uint64_t fields_served = 0;  // consumer requests satisfied (incl. cache)
  Bytes bytes_served = 0;
  std::uint64_t polls = 0;
  std::uint64_t notified_fields = 0;
  /// snapshot_reads accounting: steps published to the fleet, DAOS reads
  /// served under a pinned publication epoch, and live-read fallbacks
  /// (pin retired by retention, or snapshots disabled).
  std::uint64_t steps_published = 0;
  std::uint64_t snapshot_reads = 0;
  std::uint64_t snapshot_fallbacks = 0;
  std::vector<std::uint64_t> reads_per_consumer;     // fields served per consumer
  std::vector<std::uint64_t> admitted_per_consumer;  // admission grants per consumer
  CacheStats cache;          // summed over nodes (peaks: max)
  AdmissionStats admission;  // summed over nodes (peaks: max)
  daos::ClientStats client_stats;
  fdb::FieldIoStats field_stats;
  sim::Duration makespan = 0;  // spawn() to the last consumer exit
  bool failed = false;
  std::string failure;
};

/// The consumer fleet as a spawnable subsystem (mirror of
/// ioserver::PipelineRun): spawn() registers the worker/poller coroutines on
/// the cluster's scheduler without running it, so the write pipeline and the
/// fleet share one simulated run.  The caller drives scheduler().run().
class ConsumerFleet {
 public:
  /// `expected` is the field set the fleet will serve; every consumer reads
  /// every expected field once, as product workers derive their products
  /// from the same forecast output (this is what makes fields *hot*).
  ConsumerFleet(daos::Cluster& cluster, ServingConfig config,
                std::vector<fdb::FieldKey> expected);
  ~ConsumerFleet();
  ConsumerFleet(const ConsumerFleet&) = delete;
  ConsumerFleet& operator=(const ConsumerFleet&) = delete;

  /// Validates the config and spawns the fleet.  `on_done` fires when the
  /// last consumer drains.
  Status spawn(std::function<void()> on_done = {});

  /// Write-path notification: `key` landed with `size` stored bytes.  Wire
  /// to ioserver::PipelineConfig::on_field_stored; safe no-op before spawn()
  /// or with notifications disabled.
  void notify(const fdb::FieldKey& key, Bytes size);

  /// Write-path publication notification (snapshot_reads): `step` committed
  /// at publication `epoch`.  Every field stored before this commit is
  /// covered by it, so all held announcements are released to the consumers,
  /// stamped with `epoch` to pin during their reads.  Wire to
  /// ioserver::PipelineConfig::on_step_committed; safe no-op before spawn()
  /// or with snapshot_reads disabled.
  void notify_committed(std::uint32_t step, daos::Epoch epoch);

  /// Signals that the write path finished: no further fields will land, so
  /// a poll pass finding nothing new becomes authoritative for failing any
  /// still-missing fields instead of polling forever.
  void producers_done();

  [[nodiscard]] ServingResult& result();

  /// Implementation state, public in name only so the serving.cc worker
  /// coroutines (free functions) can take it by reference.
  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

/// Converts a serving result into obs metrics (names in docs/SERVING.md and
/// docs/OBSERVABILITY.md: pgen.*, cache.*, admission.*).
obs::MetricsSnapshot serving_metrics(const ServingResult& serving);

struct ContentionResult {
  ioserver::PipelineResult pipeline;
  ServingResult serving;
  sim::Duration makespan = 0;  // both subsystems drained
};

/// Runs the ioserver write pipeline concurrently with a consumer fleet
/// serving the pipeline's fields on the same cluster (the fleet's expected
/// set is derived from the pipeline config) and drives the scheduler to
/// completion.
ContentionResult run_write_read_contention(daos::Cluster& cluster, ioserver::PipelineConfig write,
                                           const ServingConfig& serve);

/// Harness repetition wrapper: executes run_write_read_contention on a fresh
/// cluster built from (cfg, seed) and reports the write path's global-timing
/// bandwidth, the serving read bandwidth, and the folded metrics snapshot
/// (snapshot_run_metrics + serving_metrics) — shaped for bench::repeat, so
/// sweeps are bit-identical at any --jobs count.
bench::RunOutcome run_contention_once(daos::ClusterConfig cfg, ioserver::PipelineConfig write,
                                      ServingConfig serve, std::uint64_t seed);

}  // namespace nws::pgen
