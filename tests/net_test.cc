// Unit and property tests for the flow-level network model.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "max_min_oracle.h"
#include "net/flow.h"
#include "net/provider.h"
#include "net/topology.h"
#include "sim/scheduler.h"

namespace nws::net {
namespace {

using nws::operator""_MiB;
using nws::operator""_KiB;

struct Fixture {
  sim::Scheduler sched;
  FlowScheduler flows{sched};
};

Link plain_link(const std::string& name, double capacity) {
  Link l;
  l.name = name;
  l.raw_capacity = capacity;
  return l;
}

sim::Task<void> run_transfer(FlowScheduler& fs, std::vector<LinkId> path, nws::Bytes bytes, double cap,
                             sim::TimePoint* done_at, sim::Scheduler* sched) {
  co_await fs.transfer(std::move(path), bytes, cap);
  *done_at = sched->now();
}

constexpr double kInf = std::numeric_limits<double>::infinity();

bool same_bits(double a, double b) { return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b); }

TEST(EfficiencyCurveTest, InterpolatesAndClamps) {
  const EfficiencyCurve c({{1, 10.0}, {3, 20.0}, {5, 30.0}});
  EXPECT_DOUBLE_EQ(c.evaluate(0.5), 10.0);
  EXPECT_DOUBLE_EQ(c.evaluate(1), 10.0);
  EXPECT_DOUBLE_EQ(c.evaluate(2), 15.0);
  EXPECT_DOUBLE_EQ(c.evaluate(4), 25.0);
  EXPECT_DOUBLE_EQ(c.evaluate(9), 30.0);
}

TEST(EfficiencyCurveTest, RejectsUnsortedPoints) {
  EXPECT_THROW(EfficiencyCurve({{2, 1.0}, {1, 2.0}}), std::invalid_argument);
}

TEST(EfficiencyCurveTest, EmptyEvaluateThrows) {
  const EfficiencyCurve c;
  EXPECT_THROW((void)c.evaluate(1), std::logic_error);
}

TEST(FlowSchedulerTest, SingleFlowUsesFullLink) {
  Fixture fx;
  const LinkId link = fx.flows.add_link(plain_link("l", 100.0));  // 100 B/s
  sim::TimePoint done = -1;
  fx.sched.spawn(run_transfer(fx.flows, {link}, 1000, kInf, &done, &fx.sched));
  fx.sched.run();
  EXPECT_EQ(done, sim::seconds(10.0));
  EXPECT_EQ(fx.flows.stats().flows_completed, 1u);
  EXPECT_DOUBLE_EQ(fx.flows.stats().bytes_delivered, 1000.0);
}

TEST(FlowSchedulerTest, TwoFlowsShareFairly) {
  Fixture fx;
  const LinkId link = fx.flows.add_link(plain_link("l", 100.0));
  sim::TimePoint a = -1;
  sim::TimePoint b = -1;
  fx.sched.spawn(run_transfer(fx.flows, {link}, 1000, kInf, &a, &fx.sched));
  fx.sched.spawn(run_transfer(fx.flows, {link}, 1000, kInf, &b, &fx.sched));
  fx.sched.run();
  // Both at 50 B/s -> 20 s.
  EXPECT_EQ(a, sim::seconds(20.0));
  EXPECT_EQ(b, sim::seconds(20.0));
}

TEST(FlowSchedulerTest, ShortFlowReleasesBandwidthToLongFlow) {
  Fixture fx;
  const LinkId link = fx.flows.add_link(plain_link("l", 100.0));
  sim::TimePoint small = -1;
  sim::TimePoint large = -1;
  fx.sched.spawn(run_transfer(fx.flows, {link}, 500, kInf, &small, &fx.sched));
  fx.sched.spawn(run_transfer(fx.flows, {link}, 1500, kInf, &large, &fx.sched));
  fx.sched.run();
  // Phase 1: both at 50 B/s for 10 s (small done, large has 1000 left).
  // Phase 2: large at 100 B/s for 10 s.
  EXPECT_EQ(small, sim::seconds(10.0));
  EXPECT_EQ(large, sim::seconds(20.0));
}

TEST(FlowSchedulerTest, PerFlowCapHonoured) {
  Fixture fx;
  const LinkId link = fx.flows.add_link(plain_link("l", 100.0));
  sim::TimePoint done = -1;
  fx.sched.spawn(run_transfer(fx.flows, {link}, 1000, 10.0, &done, &fx.sched));
  fx.sched.run();
  EXPECT_EQ(done, sim::seconds(100.0));
}

TEST(FlowSchedulerTest, MaxMinRedistributesCappedHeadroom) {
  Fixture fx;
  const LinkId link = fx.flows.add_link(plain_link("l", 100.0));
  sim::TimePoint capped = -1;
  sim::TimePoint open1 = -1;
  sim::TimePoint open2 = -1;
  // Capped flow takes 10 B/s; the two open flows split the remaining 90.
  fx.sched.spawn(run_transfer(fx.flows, {link}, 100, 10.0, &capped, &fx.sched));
  fx.sched.spawn(run_transfer(fx.flows, {link}, 450, kInf, &open1, &fx.sched));
  fx.sched.spawn(run_transfer(fx.flows, {link}, 450, kInf, &open2, &fx.sched));
  fx.sched.run();
  EXPECT_EQ(capped, sim::seconds(10.0));
  EXPECT_EQ(open1, sim::seconds(10.0));
  EXPECT_EQ(open2, sim::seconds(10.0));
}

TEST(FlowSchedulerTest, MultiLinkBottleneck) {
  Fixture fx;
  const LinkId fat = fx.flows.add_link(plain_link("fat", 1000.0));
  const LinkId thin = fx.flows.add_link(plain_link("thin", 10.0));
  sim::TimePoint done = -1;
  fx.sched.spawn(run_transfer(fx.flows, {fat, thin}, 100, kInf, &done, &fx.sched));
  fx.sched.run();
  EXPECT_EQ(done, sim::seconds(10.0));
}

TEST(FlowSchedulerTest, DisjointFlowsDoNotInterfere) {
  Fixture fx;
  const LinkId l1 = fx.flows.add_link(plain_link("l1", 100.0));
  const LinkId l2 = fx.flows.add_link(plain_link("l2", 100.0));
  sim::TimePoint a = -1;
  sim::TimePoint b = -1;
  fx.sched.spawn(run_transfer(fx.flows, {l1}, 1000, kInf, &a, &fx.sched));
  fx.sched.spawn(run_transfer(fx.flows, {l2}, 1000, kInf, &b, &fx.sched));
  fx.sched.run();
  EXPECT_EQ(a, sim::seconds(10.0));
  EXPECT_EQ(b, sim::seconds(10.0));
}

TEST(FlowSchedulerTest, DisjointArrivalsSkipFullSolve) {
  // Exact-regime fast path: an arrival whose links carry no other flow takes
  // its solo bottleneck rate without running the max-min solver, and a
  // departure that leaves its links empty needs no solve either.
  Fixture fx;
  const LinkId l1 = fx.flows.add_link(plain_link("l1", 100.0));
  const LinkId l2 = fx.flows.add_link(plain_link("l2", 100.0));
  sim::TimePoint a = -1;
  sim::TimePoint b = -1;
  fx.sched.spawn(run_transfer(fx.flows, {l1}, 1000, kInf, &a, &fx.sched));
  fx.sched.spawn(run_transfer(fx.flows, {l2}, 1000, 40.0, &b, &fx.sched));
  fx.sched.run();
  EXPECT_EQ(a, sim::seconds(10.0));
  EXPECT_EQ(b, sim::seconds(25.0));  // solo rate still honours the flow cap
  EXPECT_EQ(fx.flows.stats().rate_recomputations, 0u);
}

sim::Task<void> transfer_at(Fixture& fx, sim::TimePoint when, std::vector<LinkId> path,
                            nws::Bytes bytes, sim::TimePoint* done_at) {
  co_await fx.sched.delay(when - fx.sched.now());
  co_await fx.flows.transfer(std::move(path), bytes, kInf);
  *done_at = fx.sched.now();
}

TEST(FlowSchedulerTest, CoincidentArrivalAndCompletionSolveOnce) {
  // Regression: when start_flow's settle() also completes a flow at the same
  // instant, the combined change must be charged exactly ONE rate update, not
  // one for the completions plus one for the arrival.
  Fixture fx;
  const LinkId link = fx.flows.add_link(plain_link("l", 100.0));
  sim::TimePoint a = -1;
  sim::TimePoint b = -1;
  // B's wake-up timer is scheduled before A's completion timer, so at t=10s
  // B's start_flow runs first and its settle() sweeps up the just-finished A
  // (a shared departure: B is now on A's link).
  fx.sched.spawn(transfer_at(fx, sim::seconds(10.0), {link}, 500, &b));
  fx.sched.spawn(run_transfer(fx.flows, {link}, 1000, kInf, &a, &fx.sched));
  fx.sched.run();
  EXPECT_EQ(a, sim::seconds(10.0));
  EXPECT_EQ(b, sim::seconds(15.0));
  EXPECT_EQ(fx.flows.stats().flows_completed, 2u);
  // A's arrival and B's departure both hit fast paths; the only solve is the
  // coincident arrival+completion at t=10s.
  EXPECT_EQ(fx.flows.stats().rate_recomputations, 1u);
}

// ---- one rate update per simulated instant ---------------------------------
//
// A full solve is only owed when the active set changes; the instant's end
// runs the last owed solve and arms the completion timer.  The first four
// tests below each pin one rule that keeps every rate and event
// bit-identical to solving at every change.

sim::Task<void> probe_rates(Fixture& fx, sim::Duration after, std::vector<double>* rates) {
  co_await fx.sched.delay(after);
  *rates = fx.flows.current_rates();
}

TEST(FlowSchedulerTest, SameInstantArrivalsSolveOnce) {
  // 64 arrivals at t=0 owe 63 solves and run one; the 64 completions at 10 s
  // owe and run one more.  Solving at every change took 64.
  Fixture fx;
  const LinkId link = fx.flows.add_link(plain_link("l", 6400.0));
  std::vector<sim::TimePoint> done(64, -1);
  for (sim::TimePoint& d : done) fx.sched.spawn(run_transfer(fx.flows, {link}, 1000, kInf, &d, &fx.sched));
  fx.sched.run();
  for (const sim::TimePoint t : done) EXPECT_EQ(t, sim::seconds(10.0));
  EXPECT_EQ(fx.flows.stats().rate_recomputations, 2u);
}

TEST(FlowSchedulerTest, IdleLinkArrivalSeesOwedSolve) {
  // The fourth arrival's link is idle, so it takes its solo rate and leaves
  // the others at the rates the owed solve gives them without it.  A solve
  // that includes it fills to 3 first and gives the three flows
  // 33.33333333333333, one bit below 100.0 / 3.
  Fixture fx;
  const LinkId shared = fx.flows.add_link(plain_link("shared", 100.0));
  const LinkId idle = fx.flows.add_link(plain_link("idle", 3.0));
  std::vector<sim::TimePoint> done(4, -1);
  for (std::size_t i = 0; i < 3; ++i) fx.sched.spawn(run_transfer(fx.flows, {shared}, 1000, kInf, &done[i], &fx.sched));
  fx.sched.spawn(run_transfer(fx.flows, {idle}, 1000, kInf, &done[3], &fx.sched));
  std::vector<double> rates;
  fx.sched.spawn(probe_rates(fx, 1, &rates));
  fx.sched.run();
  ASSERT_EQ(rates.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_TRUE(same_bits(rates[i], 100.0 / 3)) << rates[i];
  EXPECT_EQ(rates[3], 3.0);
}

TEST(FlowSchedulerTest, LazyArrivalSeesOwedSolve) {
  // Above the lazy threshold an arrival is rated from the last solve's
  // floor.  The solve owed by the second and third arrivals must run before
  // the fourth joins; without it the floor is unset, and the fourth waits
  // for a solve over all four at 25.
  Fixture fx;
  fx.flows.set_lazy_recompute(3, 12);
  const LinkId link = fx.flows.add_link(plain_link("l", 100.0));
  std::vector<sim::TimePoint> done(4, -1);
  for (sim::TimePoint& d : done) fx.sched.spawn(run_transfer(fx.flows, {link}, 1000, kInf, &d, &fx.sched));
  std::vector<double> rates;
  fx.sched.spawn(probe_rates(fx, 1, &rates));
  fx.sched.run();
  ASSERT_EQ(rates.size(), 4u);
  EXPECT_TRUE(same_bits(rates[3], 100.0 / 3)) << rates[3];
}

TEST(FlowSchedulerTest, CompletionTimerKeepsItsQueuePosition) {
  // The flow starts before the sleeper goes to sleep, so its completion at
  // 1 s orders before the sleeper's wake-up, although the instant's end
  // arms the timer after the sleeper's delay was queued.
  Fixture fx;
  const LinkId link = fx.flows.add_link(plain_link("l", 100.0));
  sim::TimePoint done = -1;
  fx.sched.spawn(run_transfer(fx.flows, {link}, 100, kInf, &done, &fx.sched));
  std::size_t active_at_wake = 99;
  fx.sched.spawn([](Fixture& f, std::size_t* active) -> sim::Task<void> {
    co_await f.sched.delay(sim::seconds(1.0));
    *active = f.flows.active_flows();
  }(fx, &active_at_wake));
  fx.sched.run();
  EXPECT_EQ(done, sim::seconds(1.0));
  EXPECT_EQ(active_at_wake, 0u);
}

TEST(FlowSchedulerTest, ZeroCapacityLinkThrows) {
  // The efficiency curve leaves the flow no capacity: the instant's end
  // finds no completion time and reports the model error.
  Fixture fx;
  Link l = plain_link("dead", 100.0);
  l.efficiency = EfficiencyCurve({{1, 0.0}});
  const LinkId link = fx.flows.add_link(std::move(l));
  sim::TimePoint done = -1;
  fx.sched.spawn(run_transfer(fx.flows, {link}, 100, kInf, &done, &fx.sched));
  EXPECT_THROW(fx.sched.run(), std::logic_error);
}

TEST(FlowSchedulerTest, EmptyPathCompletesImmediately) {
  Fixture fx;
  sim::TimePoint done = -1;
  fx.sched.spawn(run_transfer(fx.flows, {}, 1000, kInf, &done, &fx.sched));
  fx.sched.run();
  EXPECT_EQ(done, 0);
}

TEST(FlowSchedulerTest, ZeroByteTransferCompletesImmediately) {
  Fixture fx;
  const LinkId link = fx.flows.add_link(plain_link("l", 100.0));
  sim::TimePoint done = -1;
  fx.sched.spawn(run_transfer(fx.flows, {link}, 0, kInf, &done, &fx.sched));
  fx.sched.run();
  EXPECT_EQ(done, 0);
}

TEST(FlowSchedulerTest, InstantTransfersAreAccounted) {
  // Regression: the empty-path and zero-byte fast paths used to return
  // without touching FlowStats, so conservation checks (bytes requested ==
  // bytes delivered) failed whenever a model legitimately moved zero-cost
  // payloads.
  Fixture fx;
  const LinkId link = fx.flows.add_link(plain_link("l", 100.0));
  sim::TimePoint a = -1;
  sim::TimePoint b = -1;
  fx.sched.spawn(run_transfer(fx.flows, {}, 1000, kInf, &a, &fx.sched));
  fx.sched.spawn(run_transfer(fx.flows, {link}, 0, kInf, &b, &fx.sched));
  fx.sched.run();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 0);
  EXPECT_EQ(fx.flows.stats().flows_started, 2u);
  EXPECT_EQ(fx.flows.stats().flows_completed, 2u);
  EXPECT_DOUBLE_EQ(fx.flows.stats().bytes_delivered, 1000.0);
}

TEST(FlowSchedulerTest, UnknownLinkRejected) {
  Fixture fx;
  sim::TimePoint done = -1;
  fx.sched.spawn(run_transfer(fx.flows, {42}, 10, kInf, &done, &fx.sched));
  EXPECT_THROW(fx.sched.run(), std::out_of_range);
}

// Regression: a rate cap that is not positive used to surface far from the
// faulty transfer, as "active flows with zero rate" or, once any link's
// capacity had been modulated, as a scheduler deadlock.  start_flow rejects
// it, as it rejects an unknown link.
void expect_rate_cap_rejected(double cap) {
  for (const bool modulated : {false, true}) {
    Fixture fx;
    const LinkId link = fx.flows.add_link(plain_link("l", 100.0));
    if (modulated) fx.flows.set_capacity_factor(link, 0.5);
    sim::TimePoint done = -1;
    fx.sched.spawn(run_transfer(fx.flows, {link}, 10, cap, &done, &fx.sched));
    EXPECT_THROW(fx.sched.run(), std::invalid_argument) << "cap " << cap << (modulated ? ", modulated" : "");
    EXPECT_EQ(fx.flows.active_flows(), 0u);
  }
}

TEST(FlowSchedulerTest, NanRateCapRejected) {
  expect_rate_cap_rejected(std::numeric_limits<double>::quiet_NaN());
}

TEST(FlowSchedulerTest, ZeroRateCapRejected) { expect_rate_cap_rejected(0.0); }

TEST(FlowSchedulerTest, NegativeRateCapRejected) { expect_rate_cap_rejected(-5.0); }

TEST(FlowSchedulerTest, NonPositiveCapacityRejected) {
  Fixture fx;
  EXPECT_THROW(fx.flows.add_link(plain_link("bad", 0.0)), std::invalid_argument);
}

TEST(FlowSchedulerTest, EfficiencyCurveReducesAggregate) {
  Fixture fx;
  Link l = plain_link("nic", 125.0);
  // 1 stream: 31; 2 streams: 41 aggregate (mini Table 2 shape).
  l.efficiency = EfficiencyCurve({{1, 31.0}, {2, 41.0}});
  const LinkId link = fx.flows.add_link(std::move(l));
  sim::TimePoint a = -1;
  sim::TimePoint b = -1;
  fx.sched.spawn(run_transfer(fx.flows, {link}, 310, kInf, &a, &fx.sched));
  fx.sched.run();
  EXPECT_EQ(a, sim::seconds(10.0));  // single stream at 31 B/s

  sim::Scheduler sched2;
  FlowScheduler flows2(sched2);
  Link l2 = plain_link("nic", 125.0);
  l2.efficiency = EfficiencyCurve({{1, 31.0}, {2, 41.0}});
  const LinkId link2 = flows2.add_link(std::move(l2));
  sched2.spawn(run_transfer(flows2, {link2}, 205, kInf, &a, &sched2));
  sched2.spawn(run_transfer(flows2, {link2}, 205, kInf, &b, &sched2));
  sched2.run();
  EXPECT_EQ(a, sim::seconds(10.0));  // two streams at 20.5 B/s each
  EXPECT_EQ(b, sim::seconds(10.0));
}

// Property sweep: N equal flows through one link must each get capacity/N
// (conservation + fairness), regardless of N.
class FlowFairness : public ::testing::TestWithParam<int> {};

TEST_P(FlowFairness, EqualFlowsSplitEqually) {
  const int n = GetParam();
  Fixture fx;
  fx.flows.set_lazy_recompute(std::numeric_limits<std::size_t>::max(), 1);  // exact solver
  const LinkId link = fx.flows.add_link(plain_link("l", 1000.0));
  std::vector<sim::TimePoint> done(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    fx.sched.spawn(run_transfer(fx.flows, {link}, 1000, kInf, &done[static_cast<std::size_t>(i)], &fx.sched));
  }
  fx.sched.run();
  for (const auto t : done) EXPECT_EQ(t, sim::seconds(static_cast<double>(n)));
  EXPECT_DOUBLE_EQ(fx.flows.stats().bytes_delivered, 1000.0 * n);
  EXPECT_EQ(fx.flows.stats().peak_concurrent, static_cast<std::size_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Widths, FlowFairness, ::testing::Values(1, 2, 3, 7, 16, 64, 256));

// The bounded-staleness mode must conserve bytes exactly and approximate
// the exact completion time closely.
TEST(FlowSchedulerTest, LazyRecomputeStaysCloseToExact) {
  auto run_with = [](std::size_t threshold) {
    sim::Scheduler sched;
    FlowScheduler flows(sched);
    flows.set_lazy_recompute(threshold, 12);
    const LinkId link = flows.add_link(plain_link("l", 1000.0));
    const int n = 400;
    auto done = std::make_shared<std::vector<sim::TimePoint>>(n, -1);
    for (int i = 0; i < n; ++i) {
      // Staggered arrivals so the flow set keeps churning.
      auto proc = [](sim::Scheduler& s, FlowScheduler& fs, LinkId l, sim::TimePoint* out,
                     int idx) -> sim::Task<void> {
        co_await s.delay(sim::milliseconds(static_cast<double>(idx)));
        std::vector<LinkId> path{l};
        co_await fs.transfer(std::move(path), 500, kInf);
        *out = s.now();
      };
      sched.spawn(proc(sched, flows, link, &(*done)[static_cast<std::size_t>(i)], i));
    }
    sched.run();
    double total = flows.stats().bytes_delivered;
    return std::pair<double, sim::TimePoint>(total, sched.now());
  };
  const auto exact = run_with(std::numeric_limits<std::size_t>::max());
  const auto lazy = run_with(64);
  EXPECT_DOUBLE_EQ(exact.first, lazy.first);  // bytes conserved exactly
  const double exact_t = static_cast<double>(exact.second);
  const double lazy_t = static_cast<double>(lazy.second);
  EXPECT_NEAR(lazy_t / exact_t, 1.0, 0.05);  // completion time within 5%
}

// ---- seeded oracle sweep ----------------------------------------------------
//
// Random fabrics (efficiency curves, capacity factors including 0) carry
// random flow sets (paths with shared prefixes and repeated links; caps that
// are infinite, shared by many flows, or distinct) through arrivals,
// completions and capacity changes.  set_capacity_factor always forces a
// full solve; after each one the scheduler's rates must equal the reference
// solver's (max_min_oracle.h) bit for bit, per flow, in active-flow order.
// A failing case prints its one-line replay:
//
//   NWS_FLOW_SEED=<seed> NWS_FLOW_COUNT=1 ./net_test --gtest_filter='FlowOracleSweep.*'
//
// NWS_FLOW_SEED is the base seed (default 1) and NWS_FLOW_COUNT the number
// of cases (default 200).

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  // NWSLINT(allow:determinism): replay-knob helper; every call site passes an NWS_* literal
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

struct OracleCase {
  // (path, cap) of every flow inside transfer(): the scheduler's active
  // flows, plus any that finished at this instant and have not resumed yet.
  std::vector<FlowScheduler::ActiveFlow> in_transfer;
  std::uint64_t solves_checked = 0;
  std::uint64_t shared_class_solves = 0;  // some (path, cap) carried two or more flows
  std::uint64_t stalled_solves = 0;       // some flow sat at rate 0 behind a zeroed link
  std::string failure;                    // first divergence; empty if none
};

bool same_spec(const FlowScheduler::ActiveFlow& a, const FlowScheduler::ActiveFlow& b) {
  return a.cap == b.cap && a.path == b.path;
}

// Removes one entry equal to `spec`; false if there is none.
bool take_spec(std::vector<FlowScheduler::ActiveFlow>& specs, const FlowScheduler::ActiveFlow& spec) {
  const auto it = std::find_if(specs.begin(), specs.end(), [&](const auto& s) { return same_spec(s, spec); });
  if (it == specs.end()) return false;
  *it = std::move(specs.back());
  specs.pop_back();
  return true;
}

// Sets a capacity factor, which forces a full solve, and checks the result.
void force_solve_and_check(FlowScheduler& fs, LinkId link, double factor, OracleCase& out) {
  const std::uint64_t completed = fs.stats().flows_completed;
  fs.set_capacity_factor(link, factor);
  // A flow that finished at this instant is settled after the solve, and a
  // departure from private links leaves the others at rates solved with it
  // present.  Solving again at the same instant completes nothing more.
  if (fs.stats().flows_completed != completed) fs.set_capacity_factor(link, factor);

  const std::vector<FlowScheduler::ActiveFlow> specs = fs.active_flow_specs();
  const std::vector<double> got = fs.current_rates();
  const std::vector<double> want = reference_max_min_rates(fs, specs);
  ++out.solves_checked;
  bool shared = false;
  for (std::size_t i = 0; i < specs.size() && !shared; ++i) {
    for (std::size_t j = i + 1; j < specs.size() && !shared; ++j) shared = same_spec(specs[i], specs[j]);
  }
  if (shared) ++out.shared_class_solves;
  if (std::find(want.begin(), want.end(), 0.0) != want.end()) ++out.stalled_solves;
  if (!out.failure.empty()) return;
  // The hook reports each flow through its class, so check it against the
  // transfers actually requested: a flow filed under the wrong class shows.
  std::vector<FlowScheduler::ActiveFlow> requested = out.in_transfer;
  for (const FlowScheduler::ActiveFlow& spec : specs) {
    if (!take_spec(requested, spec)) {
      out.failure = "solve " + std::to_string(out.solves_checked) + ": an active flow's (path, cap) was never requested";
      return;
    }
  }
  if (got.size() != want.size()) {
    out.failure = "solve " + std::to_string(out.solves_checked) + ": " + std::to_string(got.size()) +
                  " rates, reference has " + std::to_string(want.size());
    return;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (same_bits(got[i], want[i])) continue;
    std::ostringstream msg;
    msg.precision(17);
    msg << "solve " << out.solves_checked << ", flow " << i << " of " << got.size() << ": rate " << got[i]
        << ", reference " << want[i];
    out.failure = msg.str();
    return;
  }
}

sim::Task<void> oracle_flow(sim::Scheduler& sched, FlowScheduler& fs, sim::Duration start,
                            FlowScheduler::ActiveFlow spec, nws::Bytes bytes, OracleCase* out) {
  co_await sched.delay(start);
  out->in_transfer.push_back(spec);
  co_await fs.transfer(spec.path, bytes, spec.cap);
  take_spec(out->in_transfer, spec);
}

sim::Task<void> oracle_capacity_changes(sim::Scheduler& sched, FlowScheduler& fs, std::vector<LinkId> links,
                                        std::uint64_t seed, OracleCase* out) {
  Rng rng(seed);
  constexpr double kFactors[] = {0.0, 0.3, 0.5, 1.0};
  const std::uint64_t changes = 8 + rng.next_below(24);
  for (std::uint64_t c = 0; c < changes; ++c) {
    co_await sched.delay(sim::seconds(rng.uniform(0.0, 1.5)));
    const LinkId link = links[rng.next_below(links.size())];
    const double factor = rng.next_below(5) == 0 ? rng.uniform(0.05, 2.0) : kFactors[rng.next_below(4)];
    force_solve_and_check(fs, link, factor, *out);
  }
  // Restore every link so that every flow can finish.
  for (const LinkId link : links) force_solve_and_check(fs, link, 1.0, *out);
}

OracleCase run_oracle_case(std::uint64_t seed) {
  Rng rng(seed);
  sim::Scheduler sched;
  FlowScheduler fs(sched);
  std::vector<LinkId> links;
  for (std::uint64_t i = 0, n = 2 + rng.next_below(10); i < n; ++i) {
    Link l = plain_link("l" + std::to_string(i), rng.uniform(200.0, 2000.0));
    if (rng.next_below(2) == 0) {
      std::vector<std::pair<double, double>> points;
      double streams = 0.0;
      for (std::uint64_t p = 0, np = 1 + rng.next_below(3); p < np; ++p) {
        streams += 1.0 + static_cast<double>(rng.next_below(4));
        points.emplace_back(streams, rng.uniform(0.3, 1.2) * l.raw_capacity);
      }
      l.efficiency = EfficiencyCurve(std::move(points));
    }
    links.push_back(fs.add_link(std::move(l)));
  }
  // Paths start from a few shared trunks, so flows meet on common links and
  // equal (path, cap) pairs recur.
  std::vector<std::vector<LinkId>> trunks(1 + rng.next_below(3));
  for (std::vector<LinkId>& trunk : trunks) {
    for (std::uint64_t k = 0, n = 1 + rng.next_below(2); k < n; ++k) {
      trunk.push_back(links[rng.next_below(links.size())]);
    }
  }
  OracleCase out;
  constexpr double kSharedCaps[] = {40.0, 75.0, 120.0};
  const std::uint64_t n_flows = 4 + rng.next_below(60);
  for (std::uint64_t f = 0; f < n_flows; ++f) {
    std::vector<LinkId> path = trunks[rng.next_below(trunks.size())];
    for (std::uint64_t k = 0, n = rng.next_below(3); k < n; ++k) path.push_back(links[rng.next_below(links.size())]);
    if (rng.next_below(8) == 0) path.push_back(path[rng.next_below(path.size())]);  // a repeated link
    const std::uint64_t kind = rng.next_below(3);
    const double cap = kind == 0   ? kInf
                       : kind == 1 ? kSharedCaps[rng.next_below(3)]
                                   : rng.uniform(10.0, 300.0);
    // Starts on a coarse grid, so that arrivals coincide.
    const sim::Duration start = sim::seconds(0.5 * static_cast<double>(rng.next_below(40)));
    const nws::Bytes bytes = 20 + rng.next_below(2000);
    sched.spawn(oracle_flow(sched, fs, start, {std::move(path), cap}, bytes, &out));
  }
  sched.spawn(oracle_capacity_changes(sched, fs, links, rng.next_u64(), &out));
  try {
    sched.run();
  } catch (const std::exception& e) {
    if (out.failure.empty()) out.failure = std::string("threw: ") + e.what();
  }
  if (out.failure.empty() && fs.stats().flows_completed != n_flows) {
    out.failure = std::to_string(fs.stats().flows_completed) + " of " + std::to_string(n_flows) +
                  " flows completed";
  }
  return out;
}

TEST(FlowOracleSweep, RatesMatchReferenceBitForBit) {
  const std::uint64_t base = env_u64("NWS_FLOW_SEED", 1);
  const std::uint64_t count = env_u64("NWS_FLOW_COUNT", 200);
  OracleCase total;
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    const OracleCase c = run_oracle_case(seed);
    EXPECT_TRUE(c.failure.empty()) << "seed " << seed << ": " << c.failure << "\nreplay: NWS_FLOW_SEED=" << seed
                                   << " NWS_FLOW_COUNT=1 ./net_test --gtest_filter='FlowOracleSweep.*'";
    total.solves_checked += c.solves_checked;
    total.shared_class_solves += c.shared_class_solves;
    total.stalled_solves += c.stalled_solves;
  }
  // The sweep must reach the cases the classes exist for; a single-seed
  // replay may legitimately miss them.
  if (std::getenv("NWS_FLOW_SEED") == nullptr) {
    EXPECT_GT(total.solves_checked, 8 * count);
    EXPECT_GT(total.shared_class_solves, total.solves_checked / 4) << "few multi-member classes";
    EXPECT_GT(total.stalled_solves, 0u) << "no solve saw a zeroed link";
  }
}

TEST(ProviderTest, TcpStreamCurveMatchesTable2Row) {
  const ProviderProfile tcp = tcp_provider();
  // Single-stream optimum ~3.1 GiB/s in the low-MiB range (Table 2 row 2).
  double best = 0.0;
  for (const nws::Bytes s : {256_KiB, 512_KiB, 1_MiB, 2_MiB, 4_MiB, 8_MiB, 16_MiB, 32_MiB}) {
    best = std::max(best, tcp.stream_rate_cap(s));
  }
  EXPECT_NEAR(to_gib_per_sec(best), 3.1, 0.15);
  // Large transfers are slower than the optimum.
  EXPECT_LT(tcp.stream_rate_cap(32_MiB), best);
  // Tiny transfers are latency-bound.
  EXPECT_LT(tcp.stream_rate_cap(64_KiB), 0.8 * best);
}

TEST(ProviderTest, Psm2StreamNearsAdapterLimit) {
  const ProviderProfile psm2 = psm2_provider();
  EXPECT_NEAR(to_gib_per_sec(psm2.stream_rate_cap(8_MiB)), 12.1, 0.2);
  EXPECT_LT(psm2.stream_rate_cap(8_MiB), gib_per_sec(12.5));
}

TEST(ProviderTest, TcpAggregateCurveMatchesTable2) {
  const ProviderProfile tcp = tcp_provider();
  EXPECT_NEAR(to_gib_per_sec(tcp.nic_curve.evaluate(1)), 3.1, 0.01);
  EXPECT_NEAR(to_gib_per_sec(tcp.nic_curve.evaluate(8)), 9.5, 0.01);
  EXPECT_NEAR(to_gib_per_sec(tcp.nic_curve.evaluate(16)), 9.0, 0.01);
  // Degradation past 8 streams (Table 2: 16 pairs slower than 8).
  EXPECT_GT(to_gib_per_sec(tcp.nic_curve.evaluate(8)), to_gib_per_sec(tcp.nic_curve.evaluate(16)));
}

TEST(ProviderTest, LookupByName) {
  EXPECT_EQ(provider_by_name("tcp").name, "tcp");
  EXPECT_EQ(provider_by_name("psm2").name, "psm2");
  EXPECT_THROW(provider_by_name("verbs"), std::invalid_argument);
  EXPECT_FALSE(provider_by_name("psm2").supports_dual_rail);
  EXPECT_TRUE(provider_by_name("tcp").supports_dual_rail);
}

TEST(TopologyTest, PathsFollowRails) {
  sim::Scheduler sched;
  FlowScheduler flows(sched);
  TopologyConfig cfg;
  cfg.nodes = 2;
  cfg.provider = tcp_provider();
  const Topology topo(flows, cfg);

  // Same rail: tx + rx only.
  const auto same_rail = topo.path({0, 0}, {1, 0});
  ASSERT_EQ(same_rail.size(), 2u);
  EXPECT_EQ(same_rail[0], topo.nic_tx({0, 0}));
  EXPECT_EQ(same_rail[1], topo.nic_rx({1, 0}));

  // Cross rail: enters on sender's rail, crosses destination UPI.
  const auto cross_rail = topo.path({0, 0}, {1, 1});
  ASSERT_EQ(cross_rail.size(), 3u);
  EXPECT_EQ(cross_rail[0], topo.nic_tx({0, 0}));
  EXPECT_EQ(cross_rail[1], topo.nic_rx({1, 0}));  // same-rail NIC on destination
  EXPECT_EQ(cross_rail[2], topo.upi(1));

  // Same node, different socket: UPI only, no fabric.
  const auto intra = topo.path({0, 0}, {0, 1});
  ASSERT_EQ(intra.size(), 1u);
  EXPECT_EQ(intra[0], topo.upi(0));

  // Same endpoint: no links.
  EXPECT_TRUE(topo.path({0, 1}, {0, 1}).empty());
}

TEST(TopologyTest, LatencyOrdering) {
  sim::Scheduler sched;
  FlowScheduler flows(sched);
  TopologyConfig cfg;
  cfg.nodes = 2;
  cfg.provider = tcp_provider();
  const Topology topo(flows, cfg);
  EXPECT_LT(topo.latency({0, 0}, {0, 0}), topo.latency({0, 0}, {0, 1}));
  EXPECT_LT(topo.latency({0, 0}, {0, 1}), topo.latency({0, 0}, {1, 0}));
  EXPECT_LT(topo.latency({0, 0}, {1, 0}), topo.latency({0, 0}, {1, 1}));
}

TEST(TopologyTest, RejectsBadEndpoints) {
  sim::Scheduler sched;
  FlowScheduler flows(sched);
  TopologyConfig cfg;
  cfg.nodes = 1;
  cfg.provider = tcp_provider();
  const Topology topo(flows, cfg);
  EXPECT_THROW((void)topo.nic_tx({1, 0}), std::out_of_range);
  EXPECT_THROW((void)topo.nic_tx({0, 2}), std::out_of_range);
}

TEST(TopologyTest, PsmLatencyBelowTcp) {
  sim::Scheduler s1;
  FlowScheduler f1(s1);
  TopologyConfig c1;
  c1.nodes = 2;
  c1.provider = tcp_provider();
  const Topology t1(f1, c1);

  sim::Scheduler s2;
  FlowScheduler f2(s2);
  TopologyConfig c2;
  c2.nodes = 2;
  c2.provider = psm2_provider();
  const Topology t2(f2, c2);

  EXPECT_LT(t2.latency({0, 0}, {1, 0}), t1.latency({0, 0}, {1, 0}));
}

// End-to-end sanity: a TCP transfer between two nodes should deliver about
// 3.1 GiB/s for one stream and ~9.5 GiB/s aggregate for 8 streams.
class TcpStreamScaling : public ::testing::TestWithParam<int> {};

TEST_P(TcpStreamScaling, AggregateTracksTable2) {
  const int streams = GetParam();
  sim::Scheduler sched;
  FlowScheduler flows(sched);
  TopologyConfig cfg;
  cfg.nodes = 2;
  cfg.provider = tcp_provider();
  const Topology topo(flows, cfg);

  const nws::Bytes per_stream = 64_MiB;
  std::vector<sim::TimePoint> done(static_cast<std::size_t>(streams), -1);
  for (int i = 0; i < streams; ++i) {
    auto path = topo.path({0, 0}, {1, 0});
    const double cap = cfg.provider.stream_rate_cap(2_MiB);  // chunked at optimum
    sched.spawn(run_transfer(flows, std::move(path), per_stream, cap, &done[static_cast<std::size_t>(i)],
                             &sched));
  }
  sched.run();
  sim::TimePoint last = 0;
  for (const auto t : done) last = std::max(last, t);
  const double aggregate =
      static_cast<double>(per_stream) * streams / sim::to_seconds(last);
  const double expected = std::min(static_cast<double>(streams) * cfg.provider.stream_rate_cap(2_MiB),
                                   cfg.provider.nic_curve.evaluate(streams));
  EXPECT_NEAR(to_gib_per_sec(aggregate), to_gib_per_sec(expected), 0.1);
}

INSTANTIATE_TEST_SUITE_P(StreamCounts, TcpStreamScaling, ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace nws::net
