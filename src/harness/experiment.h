// Experiment runner: repetitions, parameter sweeps and best-configuration
// search over fresh simulated clusters.
//
// The paper's methodology (Sections 6.2-6.3): each configuration is repeated
// several times; bandwidths are reported either as the maximum across
// repetitions (Table 1) or the mean for the best-performing process count
// per client node (Fig. 3-6).  Every repetition runs on a freshly built
// cluster with a repetition-specific seed, as the real runs re-created pools
// between executions.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "daos/cluster.h"
#include "harness/field_bench.h"
#include "harness/run_pool.h"
#include "ior/ior.h"
#include "obs/metrics.h"

namespace nws::bench {

/// Bandwidths of one workload execution, GiB/s.
struct RunOutcome {
  double write_bw = 0.0;
  double read_bw = 0.0;
  /// Named counters/gauges/histograms of the run (simulator, network, DAOS
  /// client and field-I/O layers; names in docs/OBSERVABILITY.md).
  obs::MetricsSnapshot metrics;
  bool failed = false;
  std::string failure;
};

/// Repetition summary for a configuration.
struct RepetitionSummary {
  Summary write;       // GiB/s per repetition
  Summary read;        // GiB/s per repetition
  /// Per-repetition snapshots folded in repetition order (counters add,
  /// gauges max, histograms append) — bit-identical at any job count.
  obs::MetricsSnapshot metrics;
  bool any_failed = false;
  std::string failure;

  [[nodiscard]] double mean_aggregate() const {
    return (write.empty() ? 0.0 : write.mean()) + (read.empty() ? 0.0 : read.mean());
  }
};

/// Builds one run's metrics snapshot from the simulator, network and
/// workload counters.  `field` is null for workloads without a field-I/O
/// layer (IOR).  `cluster` adds the `epoch.*` namespace (commit, snapshot
/// and write-amplification accounting, docs/EPOCHS.md) — emitted only when
/// the run actually used epochs, so artifacts of epoch-free workloads are
/// byte-identical to before.
obs::MetricsSnapshot snapshot_run_metrics(const sim::Scheduler& sched, const net::FlowStats& flows,
                                          const IoLog& write_log, const IoLog& read_log,
                                          const daos::ClientStats& client,
                                          const fdb::FieldIoStats* field = nullptr,
                                          const daos::Cluster* cluster = nullptr);

/// Runs `reps` repetitions of `run` (a callable taking the repetition seed
/// and returning a RunOutcome) and summarises.
///
/// Repetitions are distributed over `jobs` threads (default: the process-wide
/// default_jobs(), i.e. the --jobs flag).  Each repetition's seed depends only
/// on (base_seed, repetition index) and outcomes are folded in repetition
/// order, so the summary is bit-identical at any job count — `run` must build
/// all mutable state (scheduler, cluster) freshly from its seed.
RepetitionSummary repeat(std::size_t reps, std::uint64_t base_seed,
                         const std::function<RunOutcome(std::uint64_t seed)>& run,
                         std::size_t jobs = default_jobs());

/// Executes IOR (pattern A, synchronous-bandwidth metric) on a fresh
/// cluster built from `cfg` with the given seed.
RunOutcome run_ior_once(daos::ClusterConfig cfg, const ior::IorParams& params, std::uint64_t seed);

/// Executes the Field I/O benchmark (global-timing metric) on a fresh
/// cluster; `pattern` is 'A' or 'B'.
RunOutcome run_field_once(daos::ClusterConfig cfg, const FieldBenchParams& params, char pattern,
                          std::uint64_t seed);

/// Folds one finished field-benchmark execution on `cluster` into its
/// outcome: the Eq. 2 global-timing bandwidth of each non-empty log, the
/// run's metrics snapshot and, when the run read snapshots, the
/// fdb.snapshot_* read accounting.  A failed result yields only the failure.
RunOutcome field_outcome(daos::Cluster& cluster, const FieldBenchResult& result);

/// Runs `reps` repetitions for every candidate processes-per-node value and
/// returns the summary of the best-performing one (by mean write+read), with
/// the chosen ppn — the paper's "best performing number of client processes
/// per client node" reporting.
struct BestOfPpn {
  std::size_t ppn = 0;
  RepetitionSummary summary;
};

/// The (ppn x repetition) job grid is flattened and distributed over `jobs`
/// threads as one sweep (not nested per-ppn pools), then folded in candidate
/// order — like repeat(), bit-identical at any job count.
BestOfPpn best_over_ppn(const std::vector<std::size_t>& ppn_candidates, std::size_t reps,
                        std::uint64_t base_seed,
                        const std::function<RunOutcome(std::size_t ppn, std::uint64_t seed)>& run,
                        std::size_t jobs = default_jobs());

/// A standard NEXTGenIO-like cluster config for the given node counts.
daos::ClusterConfig testbed_config(std::size_t server_nodes, std::size_t client_nodes,
                                   const std::string& provider_name = "tcp");

}  // namespace nws::bench
