// Admission control for the product-generation read path.
//
// Dissemination overload must degrade latency predictably instead of
// collapsing the flow scheduler (or, on the real system, the DAOS engines)
// under thousands of simultaneous reads.  Each client node bounds its
// in-flight DAOS reads with a budget; excess requests park in per-consumer
// FIFO queues drained round-robin, so one hot consumer cannot starve the
// others — every consumer is granted at most one slot per rotation while
// anyone else is waiting.
//
// Like sim/sync.h primitives, slots are handed over directly on release
// (never returned to the pool while a waiter queues), so the budget is a
// hard bound and wakeup order is deterministic.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "sim/scheduler.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/time.h"

namespace nws::pgen {

struct AdmissionConfig {
  /// In-flight DAOS read budget per client node; 0 = unlimited (admission
  /// control off — the baseline the bench sweeps against).
  std::size_t max_in_flight = 4;
};

struct AdmissionStats {
  std::uint64_t admitted = 0;  // total grants
  std::uint64_t queued = 0;    // grants that had to wait for a slot
  std::size_t peak_queued = 0;
  Summary wait_seconds;  // queue wait per queued grant (simulated time)
};

class AdmissionController {
 public:
  AdmissionController(sim::Scheduler& sched, AdmissionConfig config, std::size_t consumers);
  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Acquires one read slot for `consumer` (index < consumers), waiting in
  /// that consumer's FIFO queue if the budget is exhausted.
  sim::Task<void> acquire(std::size_t consumer);

  /// Releases the slot: handed round-robin to the next waiting consumer, or
  /// returned to the budget.
  void release();

  [[nodiscard]] const AdmissionStats& stats() const { return stats_; }
  /// Per-consumer grant counts (the fairness evidence the tests assert on).
  [[nodiscard]] const std::vector<std::uint64_t>& admitted_per_consumer() const {
    return admitted_;
  }
  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }
  [[nodiscard]] std::size_t queued_now() const { return waiting_; }

 private:
  auto wait_turn(std::size_t consumer) {
    struct Awaiter {
      AdmissionController& a;
      std::size_t consumer;
      sim::WaitQueue::Link link{};
      bool await_ready() const { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        a.queues_[consumer].push(link, h);
        ++a.waiting_;
        if (a.waiting_ > a.stats_.peak_queued) a.stats_.peak_queued = a.waiting_;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, consumer};
  }

  sim::Scheduler& sched_;
  AdmissionConfig config_;
  std::size_t in_flight_ = 0;
  std::size_t waiting_ = 0;
  std::size_t cursor_ = 0;  // round-robin grant position
  std::vector<sim::WaitQueue> queues_;  // one FIFO per consumer
  std::vector<std::uint64_t> admitted_;
  AdmissionStats stats_;
};

}  // namespace nws::pgen
