// I/O timestamp aggregation and the paper's throughput metrics.
//
// The benchmarks "report timestamps for various events during execution ...
// together with an identifier of the client node, process and iteration"
// (paper Section 5.5).  From those, two derived metrics:
//
//   synchronous bandwidth (Eq. 1) — per iteration, the sum of I/O sizes
//   across processes divided by that iteration's parallel wall-clock time
//   (max I/O end − min I/O start), averaged over iterations.  Valid only
//   for synchronised benchmarks (IOR).
//
//   global timing bandwidth (Eq. 2) — the sum of all I/O sizes divided by
//   the total parallel wall-clock time (max end of last I/O − min start of
//   first I/O).  Valid for synchronised and unsynchronised benchmarks; it
//   is the paper's headline metric for realistic mixed workloads.
//
// IoLog aggregates incrementally so multi-million-operation workloads do
// not materialise per-event records; a bounded detail buffer is kept for
// tests and debugging.
//
// Lives in the obs layer (not harness) so that ior can depend on it without
// closing an include cycle with harness -> ior; the nws::bench namespace is
// kept for source compatibility with the benchmark-metrics domain it models.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/stats.h"
#include "common/units.h"
#include "sim/time.h"

namespace nws::bench {

struct IoRecord {
  std::uint32_t node = 0;
  std::uint32_t proc = 0;
  std::uint32_t iteration = 0;
  sim::TimePoint io_start = 0;
  sim::TimePoint io_end = 0;
  Bytes size = 0;
  /// Retry attempts the operation needed (fault injection; 0 normally).
  std::uint32_t retries = 0;
};

class IoLog {
 public:
  /// `detail_capacity` bounds the per-record buffer (0: aggregates only).
  explicit IoLog(std::size_t detail_capacity = 0) : detail_capacity_(detail_capacity) {}

  void record(std::uint32_t node, std::uint32_t proc, std::uint32_t iteration, sim::TimePoint io_start,
              sim::TimePoint io_end, Bytes size, std::uint32_t retries = 0);

  [[nodiscard]] std::uint64_t operations() const { return operations_; }
  [[nodiscard]] Bytes total_bytes() const { return total_bytes_; }
  /// Total retry attempts across all recorded operations (fault injection).
  [[nodiscard]] std::uint64_t total_retries() const { return total_retries_; }
  [[nodiscard]] bool empty() const { return operations_ == 0; }

  /// Eq. 1.  Requires at least one iteration; meaningful only when the
  /// workload synchronises iterations across processes.
  [[nodiscard]] double synchronous_bandwidth() const;

  /// Eq. 2.
  [[nodiscard]] double global_timing_bandwidth() const;

  /// Total parallel I/O wall-clock time (max end − min start).
  [[nodiscard]] sim::Duration total_wall_clock() const;

  [[nodiscard]] sim::TimePoint first_start() const { return global_start_; }
  [[nodiscard]] sim::TimePoint last_end() const { return global_end_; }

  [[nodiscard]] const std::vector<IoRecord>& detail() const { return detail_; }

  /// Per-operation latency distribution (seconds).  The paper reports only
  /// bandwidths; latency percentiles expose the straggler structure behind
  /// the synchronous-vs-global metric gap.
  [[nodiscard]] const Summary& op_latencies() const { return op_latencies_; }

 private:
  struct IterationAgg {
    sim::TimePoint min_start = std::numeric_limits<sim::TimePoint>::max();
    sim::TimePoint max_end = std::numeric_limits<sim::TimePoint>::min();
    Bytes bytes = 0;
  };

  std::size_t detail_capacity_;
  std::vector<IoRecord> detail_;
  std::vector<IterationAgg> iterations_;
  std::uint64_t operations_ = 0;
  Bytes total_bytes_ = 0;
  std::uint64_t total_retries_ = 0;
  sim::TimePoint global_start_ = std::numeric_limits<sim::TimePoint>::max();
  sim::TimePoint global_end_ = std::numeric_limits<sim::TimePoint>::min();
  Summary op_latencies_;
};

}  // namespace nws::bench
