// Post-run invariant checking for chaos/property tests.
//
// SimChecker inspects a finished simulation (scheduler drained, benchmark
// result in hand) and verifies the structural properties that must hold for
// EVERY seed, faulted or not:
//
//   * no stranded work: zero live processes, zero active flows, and every
//     started flow completed;
//   * conservation of bytes: the flow layer delivered at least the payload
//     bytes the benchmark accounted (service/metadata flows only add);
//   * monotone simulated time: every logged operation has io_start <= io_end
//     within [0, now];
//   * bandwidth-equation consistency: recomputing Eq. 1 / Eq. 2 from the
//     logged per-op records reproduces the IoLog's incrementally-aggregated
//     values bit-for-bit.
//
// Test support, header-only: tests/chaos_test.cc is its one user.
#pragma once

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "net/flow.h"
#include "sim/scheduler.h"
#include "sim/time.h"

namespace nws::fault {

class SimChecker {
 public:
  /// Record of one violation, formatted for test output.
  [[nodiscard]] const std::vector<std::string>& violations() const { return violations_; }
  [[nodiscard]] bool ok() const { return violations_.empty(); }

  void check_quiescent(const sim::Scheduler& sched, const net::FlowScheduler& flows) {
    if (sched.live_processes() != 0) {
      fail("live processes after run: " + std::to_string(sched.live_processes()));
    }
    if (flows.active_flows() != 0) {
      fail("active flows after run: " + std::to_string(flows.active_flows()));
    }
    if (flows.stats().flows_started != flows.stats().flows_completed) {
      fail("flow imbalance: started " + std::to_string(flows.stats().flows_started) + ", completed " +
           std::to_string(flows.stats().flows_completed));
    }
  }

  /// `accounted_bytes`: payload bytes the workload believes it moved.  The
  /// flow layer must have delivered at least that much (metadata/service
  /// flows only add on top); allow 0.1% slack for completion epsilon.
  void check_conservation(const net::FlowScheduler& flows, double accounted_bytes) {
    if (flows.stats().bytes_delivered < accounted_bytes * 0.999) {
      fail("bytes not conserved: delivered " + std::to_string(flows.stats().bytes_delivered) +
           " < accounted " + std::to_string(accounted_bytes));
    }
  }

  /// Checks every detail record of `log` for monotone time within [0, now],
  /// then recomputes Eq. 1 and Eq. 2 from the records and compares with the
  /// log's incremental aggregates.  Requires the log to have been created
  /// with detail capacity >= operation count.
  template <typename IoLogT>
  void check_log(const IoLogT& log, sim::TimePoint now, const std::string& name) {
    if (log.empty()) return;
    if (log.detail().size() != log.operations()) {
      fail(name + ": detail buffer truncated (" + std::to_string(log.detail().size()) + " of " +
           std::to_string(log.operations()) + " ops); raise log_detail_capacity");
      return;
    }

    double total_bytes = 0.0;
    sim::TimePoint global_start = std::numeric_limits<sim::TimePoint>::max();
    sim::TimePoint global_end = std::numeric_limits<sim::TimePoint>::min();
    // Per-iteration aggregates for the Eq. 1 cross-check.
    struct Iter {
      sim::TimePoint min_start = std::numeric_limits<sim::TimePoint>::max();
      sim::TimePoint max_end = std::numeric_limits<sim::TimePoint>::min();
      double bytes = 0.0;
    };
    std::vector<Iter> iters;

    for (const auto& r : log.detail()) {
      if (r.io_start < 0 || r.io_end < r.io_start || r.io_end > now) {
        fail(name + ": non-monotone record [" + std::to_string(r.io_start) + ", " +
             std::to_string(r.io_end) + "] outside [0, " + std::to_string(now) + "]");
      }
      total_bytes += static_cast<double>(r.size);
      global_start = std::min(global_start, r.io_start);
      global_end = std::max(global_end, r.io_end);
      if (r.iteration >= iters.size()) iters.resize(r.iteration + 1);
      Iter& it = iters[r.iteration];
      it.min_start = std::min(it.min_start, r.io_start);
      it.max_end = std::max(it.max_end, r.io_end);
      it.bytes += static_cast<double>(r.size);
    }

    // Eq. 2: total bytes over total parallel wall-clock.
    const double eq2 = total_bytes / sim::to_seconds(global_end - global_start);
    if (eq2 != log.global_timing_bandwidth()) {
      fail(name + ": Eq. 2 mismatch: recomputed " + std::to_string(eq2) + ", log " +
           std::to_string(log.global_timing_bandwidth()));
    }

    // Eq. 1: mean of per-iteration bandwidths.  Zero-duration iterations are
    // skipped exactly like IoLog::synchronous_bandwidth does (instantaneous
    // iterations have no defined bandwidth), keeping the bit-exact compare.
    double sum = 0.0;
    std::size_t counted = 0;
    for (const Iter& it : iters) {
      if (it.bytes == 0.0) continue;
      if (it.max_end <= it.min_start) continue;
      sum += it.bytes / sim::to_seconds(it.max_end - it.min_start);
      ++counted;
    }
    if (counted > 0) {
      const double eq1 = sum / static_cast<double>(counted);
      if (eq1 != log.synchronous_bandwidth()) {
        fail(name + ": Eq. 1 mismatch: recomputed " + std::to_string(eq1) + ", log " +
             std::to_string(log.synchronous_bandwidth()));
      }
    }
  }

 private:
  void fail(std::string why) { violations_.push_back(std::move(why)); }

  std::vector<std::string> violations_;
};

}  // namespace nws::fault
