// Flow-level bandwidth sharing with max-min fairness.
//
// Every bulk data movement in the simulation (an IOR segment, a field
// write's array transfer, an MPI message) is a *flow*: a byte count pushed
// along a path of links.  While a flow is active it receives a rate; rates
// are recomputed with progressive-filling max-min fairness whenever the set
// of active flows changes, honouring
//
//   * each link's effective capacity (which may depend on how many flows the
//     link is carrying — the TCP efficiency curve), and
//   * each flow's own rate cap (the provider's per-stream limit, possibly
//     jittered per operation to model service-time variance).
//
// A flow completes when its byte count has been delivered; the awaiting
// simulated process is then resumed.  This is the classic flow-level network
// simulation approach: accurate steady-state sharing without per-packet
// cost.
//
// The solver.  Progressive filling raises one water level for every
// unfrozen flow; each round adds the smallest increment `delta` that
// saturates a link (residual / unfrozen flows on it) or reaches a flow's
// cap, subtracts `delta * unfrozen` from every link's residual, and freezes
// the flows that hit their cap or cross a saturated link at the level.
// Three structures, maintained by start_flow/settle rather than rebuilt per
// solve, keep each round to the links and flows it can change:
//
//   * Flow classes.  Flows with equal (path, cap) always freeze in the same
//     round at the same level, so the fill runs over classes weighted by
//     their member count; a link's unfrozen count drops by that count.
//   * Link incidence.  The set of links carrying active flows, and per link
//     the classes crossing it.  A round visits only links that still carry
//     unfrozen flows, and freezes classes only through links that saturated
//     in that round.
//   * Cap order.  Finite-cap classes sorted by cap: the smallest unfrozen
//     cap is a head pointer, and freezing by cap is a prefix walk (rounding
//     is monotone, so `cap - level <= eps` holds on a prefix).
//
// Every value is computed exactly as a per-flow fill computes it: the same
// `delta` minimum, the same `level += delta` accumulation, the same
// residual updates and freeze predicate.  So every rate is bit-identical to
// the per-flow reference kept in tests/max_min_oracle.h, which the seeded
// sweep `FlowOracleSweep` in tests/net_test.cc checks after every forced
// solve (replay: NWS_FLOW_SEED / NWS_FLOW_COUNT).  docs/PERFORMANCE.md has
// the measurements.
#pragma once

#include <coroutine>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/units.h"
#include "net/link.h"
#include "obs/trace.h"
#include "sim/scheduler.h"

namespace nws::net {

/// Identifies an active flow inside the scheduler.
using FlowId = std::uint64_t;

struct FlowStats {
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  double bytes_delivered = 0.0;
  std::size_t peak_concurrent = 0;
  std::uint64_t rate_recomputations = 0;
};

class FlowScheduler {
 public:
  explicit FlowScheduler(sim::Scheduler& sched) : sched_(sched) {}
  FlowScheduler(const FlowScheduler&) = delete;
  FlowScheduler& operator=(const FlowScheduler&) = delete;

  /// Registers a link and returns its id.
  LinkId add_link(Link link);

  [[nodiscard]] const Link& link(LinkId id) const { return links_.at(id); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  /// Mutable link access for topology post-configuration (e.g. scaling a
  /// client NIC's receive efficiency).  Must not be used once flows are
  /// active on the link.
  [[nodiscard]] Link& mutable_link(LinkId id) { return links_.at(id); }

  /// Awaitable transfer of `bytes` along `path`, rate-capped at `rate_cap`
  /// bytes/s (use infinity for no cap).  Completes when all bytes have been
  /// delivered.  An empty path transfers instantaneously.  Otherwise an
  /// unknown link throws std::out_of_range, and a cap that is not positive
  /// (NaN, zero, negative) throws std::invalid_argument.
  auto transfer(std::vector<LinkId> path, nws::Bytes bytes,
                double rate_cap = std::numeric_limits<double>::infinity()) {
    struct Awaiter {
      FlowScheduler& fs;
      std::vector<LinkId> path;
      double bytes;
      double rate_cap;
      bool await_ready() const {
        if (bytes > 0.0 && !path.empty()) return false;
        // Instant completion (zero bytes, or a path-less local move): still a
        // transfer the workload performed, so it must reach FlowStats —
        // skipping it undercounted flows_started/bytes_delivered for exactly
        // the degenerate ops the metrics registry reports.
        fs.note_instant_transfer(bytes);
        return true;
      }
      void await_suspend(std::coroutine_handle<> h) { fs.start_flow(std::move(path), bytes, rate_cap, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, std::move(path), static_cast<double>(bytes), rate_cap};
  }

  [[nodiscard]] const FlowStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t active_flows() const { return flows_.size(); }

  /// Bounded-staleness rate updates for very wide workloads: with more than
  /// `threshold` active flows, a full max-min recomputation runs only every
  /// `interval` flow arrivals/departures; in between, new flows start at the
  /// last fair-share floor.  The transient error is bounded by
  /// interval/threshold (~2% at the defaults); below the threshold the
  /// solver is exact.  Pass threshold = SIZE_MAX to force exactness.
  void set_lazy_recompute(std::size_t threshold, std::size_t interval) {
    lazy_threshold_ = threshold;
    lazy_interval_ = interval;
  }

  /// Degrades (or restores) a link's capacity at the current simulated time:
  /// effective capacity is multiplied by `factor` (0 = outage) from now on.
  /// Active flows' progress is settled first and rates are recomputed, so a
  /// mid-transfer change is accounted exactly.  Fault injection entry point.
  void set_capacity_factor(LinkId id, double factor);

  /// Current max-min rate of every active flow (test hook; bytes/s).
  [[nodiscard]] std::vector<double> current_rates() const;

  /// Path and rate cap of every active flow, in current_rates() order (test
  /// hook: the input of a reference solve).
  struct ActiveFlow {
    std::vector<LinkId> path;
    double cap = 0.0;
  };
  [[nodiscard]] std::vector<ActiveFlow> active_flow_specs() const;

  /// Number of active flows currently crossing `id` (test hook).
  [[nodiscard]] std::size_t flows_on_link(LinkId id) const;

 private:
  using ClassId = std::uint32_t;

  struct Flow {
    double remaining = 0.0;  // bytes
    double total = 0.0;      // bytes
    double rate = 0.0;       // bytes/s
    std::coroutine_handle<> waiter;
    ClassId cls = 0;                     // the flow's (path, cap) class
    obs::TraceRecorder::Token span = 0;  // lifetime span (0 = tracing off)
  };

  /// Active flows sharing one (path, cap).  A slot with no members is free.
  struct FlowClass {
    std::vector<LinkId> path;
    double cap = 0.0;  // bytes/s
    std::size_t members = 0;
    std::size_t active_pos = 0;  // index in active_classes_
    // Solve scratch.
    double rate = 0.0;
    bool frozen = false;
  };

  /// Per-link incidence (maintained) and solve scratch.
  struct LinkState {
    // Solve scratch, first: the per-round loops read only these.
    double residual = 0.0;
    double saturated_below = 0.0;  // residual at or under this freezes the link's flows
    std::size_t unfrozen = 0;      // unfrozen flows crossing the link
    // Maintained by start_flow/settle.
    std::size_t flows = 0;          // active flows crossing, one per path occurrence
    std::size_t active_pos = 0;     // index in active_links_ while flows > 0
    std::vector<ClassId> classes;   // classes crossing, one entry per path occurrence
  };

  static constexpr std::size_t kNoFlow = static_cast<std::size_t>(-1);

  /// Accounts a transfer that completed in await_ready (zero bytes or an
  /// empty path): it never becomes an active Flow but did start and finish.
  void note_instant_transfer(double bytes) {
    ++stats_.flows_started;
    ++stats_.flows_completed;
    if (bytes > 0.0) stats_.bytes_delivered += bytes;
  }

  void start_flow(std::vector<LinkId> path, double bytes, double rate_cap, std::coroutine_handle<> h);
  /// True if no active flow crosses any link of `path`.
  [[nodiscard]] bool links_idle(const std::vector<LinkId>& path) const;
  /// Adds one flow to the (path, cap) class, creating it if needed, and
  /// counts it on the class's links.
  ClassId join_class(std::vector<LinkId>&& path, double cap);
  /// Removes one flow from `cls` and its links, retiring the class when it
  /// empties.  True if one of its links still carries a flow afterwards.
  bool leave_class(ClassId cls);
  /// Applies progress for the elapsed interval since the last update.
  void advance_progress();
  /// Recomputes all flow rates (progressive-filling max-min over classes)
  /// and clears an owed solve.
  void recompute_rates();
  /// Rate update after the active set changed: exact solve (with disjoint
  /// fast paths) below the lazy threshold, bounded-staleness above it.  A
  /// full solve is only marked owed; the instant's end runs it.  `added` is
  /// the flow that just arrived (may be null); `shared_departure` means a
  /// completed flow left other flows behind on one of its links.
  void maybe_recompute(Flow* added, bool shared_departure);
  /// True if no other active flow shares a link with `f`.
  [[nodiscard]] bool links_private_to(const Flow& f) const;
  /// Max-min rate of a flow alone on every link of its path.
  [[nodiscard]] double solo_rate(const Flow& f) const;
  /// Completes any finished flows, applies the rate update for the combined
  /// arrival/departure change (a fast path now, or an owed full solve), and
  /// reserves the completion timer's queue position.  Only the first settle
  /// of an instant scans every flow for completions: progress moves only
  /// with the clock, so a later one checks just its own arrival.
  /// `added_idx` indexes the flow pushed by start_flow (kNoFlow when called
  /// from the timer or set_capacity_factor).
  void settle(std::size_t added_idx = kNoFlow);
  /// The instant-end hook: runs the owed solve, finds the next completion
  /// and arms the completion timer at the last settle's reserved position.
  void end_instant();

  sim::Scheduler& sched_;
  std::vector<Link> links_;
  std::vector<LinkState> link_state_;  // parallel to links_
  std::vector<Flow> flows_;
  std::vector<FlowClass> classes_;     // slots; ClassId indexes this
  std::vector<ClassId> free_classes_;
  std::vector<ClassId> active_classes_;
  std::vector<LinkId> active_links_;   // links with flows > 0
  // Finite-cap classes sorted by (cap, id); infinite caps never bind.
  std::vector<std::pair<double, ClassId>> cap_order_;
  sim::TimePoint last_update_ = 0;
  sim::Timer completion_timer_;
  sim::QueuePosition timer_position_;  // reserved by the instant's last settle
  sim::TimePoint settled_at_ = -1;     // instant of the last settle
  bool solve_owed_ = false;            // a full solve waits for the instant's end
  bool end_instant_armed_ = false;     // end_instant() is registered for this instant
  FlowStats stats_;
  // Solver scratch, persistent so steady-state recomputes do not allocate.
  std::vector<LinkId> live_links_;  // links still carrying unfrozen flows
  std::vector<LinkId> saturated_;   // live links that saturated this round
  std::size_t lazy_threshold_ = 224;
  std::size_t lazy_interval_ = 12;
  std::size_t changes_since_full_ = 0;
  double fair_share_floor_ = 0.0;  // min positive rate at the last full solve
  std::uint32_t trace_lane_ = 0;   // rotating tid for flow spans (readability)
  // Set once capacity modulation is in use: flows stalled at rate 0 during an
  // outage window are then legal (a restore event will recompute), instead of
  // the all-flows-stalled state being diagnosed as a model error.
  bool capacity_modulated_ = false;
};

}  // namespace nws::net
