// Conservative time-window partitioning of the discrete-event simulator.
//
// A PartitionedScheduler hosts K independent sim::Scheduler instances
// ("partitions", one per node group) and advances them in lock-step windows
// following the classic Chandy–Misra–Bryant conservative protocol, using a
// global lookahead L and a per-partition send-time promise S_p instead of
// per-link null messages:
//
//   window n:   W_n     = min over partitions of max(next_event_time(), S_p)
//               horizon = W_n + L   (saturating: never stays never)
//               every partition executes all its events with t < horizon
//   barrier:    cross-partition outboxes are drained in canonical order
//               (destination asc, source asc, send order) and their events
//               scheduled into the destination queues; the next W is
//               computed; repeat until every queue is empty.
//
// S_p (promise()) is partition p's guarantee that it posts no
// cross-partition event before S_p, whatever it receives: the earliest
// output time a CMB null message carries.  It defaults to 0, where
// max(next_event_time(), 0) is the plain next-event bound, and only rises.
//
// Safety: while executing window n, partition p sends only at clock times
// >= max(next_event_time_p, S_p) >= W_n (it runs no earlier event, and
// post() throws below S_p), and every send is stamped at send_time +
// link_latency >= W_n + L = horizon, so it can never land inside the
// window currently executing — each partition's intra-window run is an
// ordinary single-threaded DES replay.  A dishonest promise or lookahead
// can only make post() throw, never reorder.
// Determinism: window bounds depend only on event timestamps and promises
// (both simulated state, not thread interleaving) and the barrier drain
// order is canonical, so the whole execution — clocks, sequence numbers,
// every callback order — is identical for any worker count, including 1.
// That is the property the determinism test suite diffs nws-report-v1
// output over.
//
// The lookahead is a lower bound on every cross-partition event's latency;
// the sharded field campaign (harness/partitioned_bench.h) uses its
// provider's message latency.  With more than one partition a lookahead <= 0 admits
// no safe window, so the constructor rejects it.  One partition has no
// cross traffic and runs to completion without windows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/scheduler.h"
#include "sim/time.h"

namespace nws::sim {

struct PartitionConfig {
  /// Number of logical processes (node groups).  Fixed per scenario — it is
  /// part of the simulated system, not a tuning knob.
  std::size_t partitions = 1;
  /// Conservative lookahead: minimum cross-partition event latency.  Must
  /// be > 0 with more than one partition (the constructor throws
  /// std::invalid_argument otherwise).
  Duration lookahead = 0;
  /// Worker threads mapping partitions to cores (partition p runs on worker
  /// p % workers).  This is what `--jobs` controls; it must not affect
  /// results, only wall-clock.  Clamped to [1, partitions].
  std::size_t workers = 1;
  /// Optional hook invoked around each partition's execution slice on its
  /// worker thread: slice_scope(partition, /*enter=*/true) before events run
  /// and (partition, false) after.  Lets the harness bind per-partition
  /// trace recorders without the sim layer knowing about obs.
  std::function<void(std::size_t partition, bool enter)> slice_scope;
};

/// Deterministic protocol counters (reported as sim.partition.* metrics)
/// plus wall-clock barrier accounting (kept out of reports — it would break
/// bit-identical output across jobs counts).
struct PartitionRunStats {
  std::uint64_t windows = 0;        // barrier rounds executed
  std::uint64_t null_windows = 0;   // partition-windows that ran 0 events
  std::uint64_t cross_events = 0;   // events exchanged between partitions
  std::uint64_t events_executed = 0;
  std::size_t partitions = 0;
  std::size_t workers_used = 0;
  double barrier_wait_seconds = 0;  // wall-clock, workers > 1 only
};

class PartitionedScheduler {
 public:
  explicit PartitionedScheduler(PartitionConfig config);
  PartitionedScheduler(const PartitionedScheduler&) = delete;
  PartitionedScheduler& operator=(const PartitionedScheduler&) = delete;
  ~PartitionedScheduler();

  [[nodiscard]] std::size_t partitions() const { return parts_.size(); }

  /// The partition's own scheduler: spawn processes, schedule callbacks,
  /// read its clock.  Only touch partition p from p's worker thread while
  /// run() is live (i.e. from code executing inside that partition).
  [[nodiscard]] Scheduler& partition(std::size_t p) { return parts_[p]->sched; }

  /// Promises that partition `p` posts no cross-partition event before `t`;
  /// Scheduler::kNoEventTime means never again.  Call it from code executing
  /// inside `p`, or during set-up before run().  Promises only rise
  /// (lowering one throws std::logic_error); the default 0 bounds windows by
  /// next-event times alone.
  void promise(std::size_t p, TimePoint t);

  /// Sends a cross-partition event: run `cb` on partition `to` at absolute
  /// time `t`.  Must be called from code executing inside partition `from`
  /// while run() executes windows.  `from`'s clock must be at or past its
  /// promise, and `t` at or past the current window horizon (guaranteed
  /// when t = now + latency with latency >= lookahead); violating either
  /// throws std::logic_error, because delivering it would break
  /// conservatism, and so does a post outside a running window.
  template <typename F>
  void post(std::size_t from, std::size_t to, TimePoint t, F&& cb) {
    check_post(from, to, t);
    InlineCallback callback;
    callback.emplace(std::forward<F>(cb));
    parts_[from]->outbox[to].push_back(CrossEvent{t, std::move(callback)});
  }

  /// Runs every partition to completion under the window protocol.
  /// Rethrows the lowest-partition process failure; throws DeadlockError if
  /// queues drain with live processes remaining anywhere.
  void run();

  [[nodiscard]] const PartitionRunStats& stats() const { return stats_; }

 private:
  /// One cross-partition event: run `callback` on the destination at `t`.
  struct CrossEvent {
    TimePoint t = 0;
    InlineCallback callback;
  };

  struct Part {
    Scheduler sched;
    TimePoint promise = 0;  // no cross-partition post before this time
    std::uint64_t null_windows = 0;
    std::exception_ptr error;  // first failure seen on this partition
    /// Events posted inside the current window, one vector per destination
    /// in send order.  Only this partition's worker appends to them, and
    /// only the barrier's completion step drains them, so the barrier's
    /// ordering is the only synchronisation they need.
    std::vector<std::vector<CrossEvent>> outbox;
  };

  void check_post(std::size_t from, std::size_t to, TimePoint t) const;
  void run_windowed();
  /// Barrier completion step: moves every outbox into its destination queue.
  void deliver_cross_events();
  /// Sets horizon_ for the next window; false when the run is over (every
  /// queue drained, or a partition failed).
  [[nodiscard]] bool open_next_window();
  void exec_slice(std::size_t p, TimePoint horizon);
  void finish_run();

  PartitionConfig config_;
  std::vector<std::unique_ptr<Part>> parts_;
  PartitionRunStats stats_;
  bool windowed_ = false;   // true while the window protocol is executing
  TimePoint horizon_ = 0;   // current window's exclusive upper bound
};

}  // namespace nws::sim
