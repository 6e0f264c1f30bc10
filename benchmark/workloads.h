// The five nwsbench workloads.
//
// Each workload builds its simulated system through the main tree's public
// entry points, runs one repetition to completion, and reports two kinds of
// numbers side by side: *simulated* results (Eq. 2 bandwidths, per-op
// latencies, layer counters), which are a pure function of the seed, and the
// *host* seconds the repetition cost.  Every simulated process issues its
// next operation only after the previous one completed (closed loop).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "daos/cluster.h"
#include "obs/metrics.h"

namespace nwsbench {

/// `full` is the measured size; `tiny` is the --smoke size.
enum class Scale { full, tiny };

/// One repetition of a workload.
struct Rep {
  // Host seconds.  cpu_s (CPU time of every thread) and wall_s (steady
  // clock) cover the whole repetition: cluster construction, spawn, run,
  // fold and teardown.
  double cpu_s = 0.0;
  double wall_s = 0.0;
  double run_s = 0.0;   // the simulation run (serving and partitioned: the whole library call)
  double fold_s = 0.0;  // collect plus the stats-to-metrics fold
  double barrier_wait_s = 0.0;  // partitioned: summed worker barrier wait
  std::size_t workers = 1;      // threads the simulation ran on

  // Simulated results.
  double write_gib_s = 0.0;  // Eq. 2 global-timing bandwidth
  double read_gib_s = 0.0;
  nws::Summary write_latency_s;  // per completed op
  nws::Summary read_latency_s;
  std::uint64_t attempted = 0;  // ops the repetition set out to issue
  std::uint64_t completed = 0;  // ops completed (and verified, where verified)
  bool verified = false;        // every read's payload bytes were checked
  std::string failure;          // empty when the repetition succeeded
  /// Layer counters: the main tree's metric names (snapshot_run_metrics,
  /// serving_metrics, fold_into) plus fault.*, payload and ioserver.* counts.
  nws::obs::MetricsSnapshot layer;
};

struct Workload {
  const char* name;
  /// Runs one repetition.  `workers` only matters to partitioned_campaign.
  Rep (*run)(std::uint64_t seed, Scale scale, std::size_t workers);
  /// The daos::Cluster configs one repetition builds (one per shard).
  std::vector<nws::daos::ClusterConfig> (*clusters)(std::uint64_t seed, Scale scale);
  /// Top-level op spans carry fdb.*_share attribution (false where merged
  /// shard timelines reuse actor ids).
  bool span_shares;
  /// Reads are checked against the expected payload bytes (--smoke asserts
  /// Rep::verified).
  bool verifies;
  /// Host seconds one full-scale repetition takes on the 4-core reference
  /// host.  Only the repetition count derives from it, so that a run lasts
  /// about --seconds; it is a constant, never a measurement.
  double rep_seconds;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// CPU seconds this process has used, all threads.  Unlike wall-clock time
/// it excludes the time a shared host steals from the VM.
double process_cpu_seconds();

/// Host CPU seconds to construct the workload's clusters once: its set-up
/// cost.
double time_setup(const Workload& w, std::uint64_t seed, Scale scale);

}  // namespace nwsbench
