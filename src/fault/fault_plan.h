// Deterministic fault injection for the DAOS simulation.
//
// A FaultPlan materialises, from an explicit seed, a schedule of failure
// events over a bounded horizon:
//
//   * per-target service degradation — slowdown windows (capacity factor in
//     [0.05, 0.5)) and outage windows (capacity 0, operations rejected with
//     `unavailable`) on a DAOS target's read and write service links;
//   * fabric link degradation — slowdown windows (capacity factor in
//     [0.1, 0.6)) on NIC and UPI links;
//   * RPC drops — a per-operation chance that a request is silently lost,
//     costing the client the RPC timeout before a `timeout` error surfaces;
//   * transient operation errors — a per-operation chance of an `io_error`
//     returned before any functional state changes (so retries are safe);
//   * permanent target failures — a fixed number of targets leave the pool
//     forever at sampled instants; the registered handler (daos::Cluster)
//     excludes them from the pool map and starts rebuild (docs/FAULTS.md).
//
// All randomness comes from Rng streams forked off the plan seed, and the
// windows are applied through scheduler callbacks, so a run with a given
// (cluster seed, fault seed) pair is bit-reproducible — the FoundationDB
// simulation-testing property: any failing seed replays identically.
//
// Layering: this library sits below daos/ (daos::Cluster owns and arms a
// FaultPlan; daos::Client consults it per operation) and above sim/ + net/.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "net/flow.h"
#include "sim/scheduler.h"
#include "sim/time.h"

namespace nws::fault {

/// Fault-injection profile.  All rates are expected event counts over the
/// horizon (per target / per fabric link) or per-operation probabilities.
/// The default-constructed spec injects nothing.
struct FaultSpec {
  std::uint64_t seed = 1;
  /// Faults are generated within [0, horizon] of simulated time.
  sim::TimePoint horizon = sim::seconds(8.0);

  // --- per-target service windows ------------------------------------------
  double target_slowdowns_per_target = 0.0;  // expected windows per target
  double target_outages_per_target = 0.0;
  sim::Duration window_min = sim::milliseconds(2.0);
  sim::Duration window_max = sim::milliseconds(30.0);

  // --- fabric link degradation ---------------------------------------------
  double degradations_per_link = 0.0;  // expected windows per NIC/UPI link

  // --- per-operation faults ------------------------------------------------
  double rpc_drop_rate = 0.0;        // P(request silently lost) per RPC
  sim::Duration rpc_timeout = sim::milliseconds(2.0);
  double transient_error_rate = 0.0;  // P(io_error) per fallible operation

  // --- permanent target failures -------------------------------------------
  /// Exact number of targets permanently lost over the horizon (no recovery:
  /// the pool map excludes them and rebuild re-protects affected shards).
  /// Distinct targets are sampled deterministically from the plan seed.
  std::size_t permanent_failures = 0;
  /// Failure instant: every permanent failure fires at this time when >= 0;
  /// otherwise each failure samples its own time uniformly in [0, horizon).
  sim::TimePoint permanent_failure_time = -1;

  /// True if any fault class can fire.
  [[nodiscard]] bool any() const {
    return target_slowdowns_per_target > 0.0 || target_outages_per_target > 0.0 ||
           degradations_per_link > 0.0 || rpc_drop_rate > 0.0 || transient_error_rate > 0.0 ||
           permanent_failures > 0;
  }

  /// The default chaos profile used by the chaos harness: a moderate mix of
  /// every fault class, tuned so the FieldIo retry policy always completes.
  static FaultSpec default_chaos(std::uint64_t seed);
};

/// One degradation window on a target's service capacity.
struct TargetWindow {
  std::size_t target = 0;
  sim::TimePoint start = 0;
  sim::TimePoint end = 0;
  double factor = 1.0;  // 0 = outage
  bool outage = false;
};

/// One degradation window on a fabric link.
struct LinkWindow {
  net::LinkId link = net::kInvalidLink;
  sim::TimePoint start = 0;
  sim::TimePoint end = 0;
  double factor = 1.0;
};

/// One permanent target loss: the target leaves the pool at `time` and never
/// returns (docs/FAULTS.md, "Permanent failures").
struct PermanentFailure {
  std::size_t target = 0;
  sim::TimePoint time = 0;
};

/// Counters for everything the plan injected (observability + test hooks).
struct FaultStats {
  std::uint64_t rpc_drops = 0;
  std::uint64_t transient_errors = 0;
  std::uint64_t outage_rejections = 0;  // ops refused while a target was down
  std::uint64_t windows_applied = 0;    // window edges executed so far
  std::uint64_t permanent_failures = 0;  // permanent losses fired so far
};

/// A target's service links, as the plan needs them (keeps this library
/// independent of daos/).
struct TargetLinks {
  net::LinkId write_link = net::kInvalidLink;
  net::LinkId read_link = net::kInvalidLink;
};

class FaultPlan {
 public:
  explicit FaultPlan(FaultSpec spec);
  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  /// Materialises all windows for the given cluster shape and schedules the
  /// apply/restore callbacks.  Call exactly once, at simulated time 0.
  void arm(sim::Scheduler& sched, net::FlowScheduler& flows, const std::vector<TargetLinks>& targets,
           const std::vector<net::LinkId>& fabric_links);

  [[nodiscard]] bool armed() const { return armed_; }
  [[nodiscard]] const FaultSpec& spec() const { return spec_; }
  [[nodiscard]] const FaultStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<TargetWindow>& target_windows() const { return target_windows_; }
  [[nodiscard]] const std::vector<LinkWindow>& link_windows() const { return link_windows_; }

  /// Registers the pool-membership callback invoked when a permanent failure
  /// fires (daos::Cluster excludes the target and starts rebuild).  Must be
  /// set before arm() for the failures to have any effect.
  void set_permanent_failure_handler(std::function<void(std::size_t, sim::TimePoint)> handler) {
    permanent_handler_ = std::move(handler);
  }

  /// True while `target` is inside an outage window (ops must be refused
  /// with `unavailable`).  Pure query: rejections are accounted separately
  /// via note_rejection() by whichever layer actually refuses the op, so a
  /// caller consulting the query on both its read and write paths does not
  /// double-count.
  [[nodiscard]] bool target_down(std::size_t target, sim::TimePoint now) const;

  /// Counts one operation refused because its target was down.
  void note_rejection() { ++stats_.outage_rejections; }

  /// Samples whether the next RPC to `target` is dropped (deterministic
  /// stream; mutates plan state).
  [[nodiscard]] bool drop_rpc();

  /// Samples whether the next fallible operation fails transiently.
  [[nodiscard]] bool transient_error();

 private:
  /// Samples an integer count with expectation `rate` (floor + Bernoulli on
  /// the fraction — cheap, deterministic, and close enough to Poisson for
  /// small rates).
  std::size_t sample_count(Rng& rng, double rate);
  void generate_windows(const std::vector<TargetLinks>& targets,
                        const std::vector<net::LinkId>& fabric_links);
  /// Applies `factor` to (or removes it from) `link`, maintaining the stack
  /// of concurrently active factors per link.
  void apply_factor(net::FlowScheduler& flows, net::LinkId link, double factor, bool add);

  FaultSpec spec_;
  Rng op_rng_;  // per-operation sampling stream (drops, transient errors)
  bool armed_ = false;
  std::vector<TargetWindow> target_windows_;
  std::vector<LinkWindow> link_windows_;
  std::vector<PermanentFailure> permanent_failures_;
  std::function<void(std::size_t, sim::TimePoint)> permanent_handler_;
  // Outage intervals per target, for the fast target_down() query.
  std::unordered_map<std::size_t, std::vector<std::pair<sim::TimePoint, sim::TimePoint>>> outages_;
  // Active degradation factors per link (windows may overlap; the effective
  // factor is their product).
  std::unordered_map<net::LinkId, std::vector<double>> active_factors_;
  FaultStats stats_;
};

}  // namespace nws::fault
