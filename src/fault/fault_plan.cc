#include "fault/fault_plan.h"

#include <algorithm>
#include <stdexcept>

namespace nws::fault {

namespace {

// Capacity multipliers a degradation window draws from, uniformly.
constexpr double kSlowdownFactorMin = 0.05;  // target slowdowns
constexpr double kSlowdownFactorMax = 0.5;
constexpr double kLinkFactorMin = 0.1;  // NIC and UPI link degradations
constexpr double kLinkFactorMax = 0.6;

}  // namespace

FaultSpec FaultSpec::default_chaos(std::uint64_t seed) {
  FaultSpec spec;
  spec.seed = seed;
  spec.target_slowdowns_per_target = 1.5;
  spec.target_outages_per_target = 0.5;
  spec.degradations_per_link = 0.75;
  spec.rpc_drop_rate = 0.01;
  spec.transient_error_rate = 0.02;
  return spec;
}

FaultPlan::FaultPlan(FaultSpec spec) : spec_(spec), op_rng_(mix64(spec.seed ^ 0x6661756c74ull)) {
  if (spec_.horizon <= 0) throw std::invalid_argument("fault horizon must be positive");
  if (spec_.window_min <= 0 || spec_.window_max < spec_.window_min) {
    throw std::invalid_argument("bad fault window bounds");
  }
}

std::size_t FaultPlan::sample_count(Rng& rng, double rate) {
  if (rate <= 0.0) return 0;
  const double whole = std::floor(rate);
  auto n = static_cast<std::size_t>(whole);
  if (rng.next_double() < rate - whole) ++n;
  return n;
}

void FaultPlan::generate_windows(const std::vector<TargetLinks>& targets,
                                 const std::vector<net::LinkId>& fabric_links) {
  // Independent streams per fault class so adding targets/links to one class
  // never perturbs another class's schedule.
  Rng window_rng(mix64(spec_.seed ^ 0x77696e646f77ull));
  Rng target_rng = window_rng.fork(1);
  Rng link_rng = window_rng.fork(2);

  const auto horizon = static_cast<std::uint64_t>(spec_.horizon);
  const auto sample_window = [&](Rng& rng, std::size_t target, double factor, bool outage) {
    const auto start = static_cast<sim::TimePoint>(rng.next_below(horizon));
    const auto len = static_cast<sim::Duration>(
        rng.uniform(static_cast<double>(spec_.window_min), static_cast<double>(spec_.window_max)));
    TargetWindow w;
    w.target = target;
    w.start = start;
    w.end = std::min<sim::TimePoint>(start + len, spec_.horizon);
    w.factor = factor;
    w.outage = outage;
    return w;
  };

  for (std::size_t t = 0; t < targets.size(); ++t) {
    const std::size_t slowdowns = sample_count(target_rng, spec_.target_slowdowns_per_target);
    for (std::size_t i = 0; i < slowdowns; ++i) {
      const double factor = target_rng.uniform(kSlowdownFactorMin, kSlowdownFactorMax);
      target_windows_.push_back(sample_window(target_rng, t, factor, /*outage=*/false));
    }
    const std::size_t outages = sample_count(target_rng, spec_.target_outages_per_target);
    std::vector<TargetWindow> sampled;
    sampled.reserve(outages);
    for (std::size_t i = 0; i < outages; ++i) {
      sampled.push_back(sample_window(target_rng, t, 0.0, /*outage=*/true));
    }
    // Overlapping outage intervals on one target are merged into a single
    // window.  Sampled independently they would each push a 0.0 factor and
    // pop one at their own end: the first end restores capacity while the
    // second interval still claims the target is down, so the link state and
    // the target_down() query disagree mid-overlap.  One merged window per
    // covered span keeps them consistent by construction.
    std::sort(sampled.begin(), sampled.end(),
              [](const TargetWindow& a, const TargetWindow& b) { return a.start < b.start; });
    for (const TargetWindow& w : sampled) {
      if (!outages_[t].empty() && w.start <= outages_[t].back().second) {
        auto& last = outages_[t].back();
        if (w.end > last.second) {
          last.second = w.end;
          target_windows_.back().end = w.end;
        }
        continue;
      }
      outages_[t].emplace_back(w.start, w.end);
      target_windows_.push_back(w);
    }
  }

  // Permanent failures: distinct targets sampled from a dedicated stream, so
  // enabling them never perturbs the window schedules above.
  if (spec_.permanent_failures > 0 && !targets.empty()) {
    Rng perm_rng = window_rng.fork(3);
    const std::size_t count = std::min(spec_.permanent_failures, targets.size());
    std::vector<bool> picked(targets.size(), false);
    while (permanent_failures_.size() < count) {
      const auto t = static_cast<std::size_t>(perm_rng.next_below(targets.size()));
      if (picked[t]) continue;
      picked[t] = true;
      PermanentFailure pf;
      pf.target = t;
      pf.time = spec_.permanent_failure_time >= 0
                    ? std::min(spec_.permanent_failure_time, spec_.horizon)
                    : static_cast<sim::TimePoint>(perm_rng.next_below(horizon));
      permanent_failures_.push_back(pf);
    }
  }

  for (const net::LinkId id : fabric_links) {
    const std::size_t n = sample_count(link_rng, spec_.degradations_per_link);
    for (std::size_t i = 0; i < n; ++i) {
      LinkWindow w;
      w.link = id;
      w.start = static_cast<sim::TimePoint>(link_rng.next_below(horizon));
      w.end = std::min<sim::TimePoint>(
          w.start + static_cast<sim::Duration>(link_rng.uniform(static_cast<double>(spec_.window_min),
                                                                static_cast<double>(spec_.window_max))),
          spec_.horizon);
      w.factor = link_rng.uniform(kLinkFactorMin, kLinkFactorMax);
      link_windows_.push_back(w);
    }
  }
}

void FaultPlan::apply_factor(net::FlowScheduler& flows, net::LinkId link, double factor, bool add) {
  auto& active = active_factors_[link];
  if (add) {
    active.push_back(factor);
  } else {
    const auto it = std::find(active.begin(), active.end(), factor);
    if (it != active.end()) active.erase(it);
  }
  double product = 1.0;
  for (const double f : active) product *= f;
  flows.set_capacity_factor(link, product);
  ++stats_.windows_applied;
}

void FaultPlan::arm(sim::Scheduler& sched, net::FlowScheduler& flows,
                    const std::vector<TargetLinks>& targets,
                    const std::vector<net::LinkId>& fabric_links) {
  if (armed_) throw std::logic_error("FaultPlan armed twice");
  armed_ = true;
  generate_windows(targets, fabric_links);

  const auto schedule_edges = [&](net::LinkId link, sim::TimePoint start, sim::TimePoint end,
                                  double factor) {
    if (link == net::kInvalidLink || end <= start) return;
    sched.schedule_callback(start, [this, &flows, link, factor] {
      apply_factor(flows, link, factor, /*add=*/true);
    });
    sched.schedule_callback(end, [this, &flows, link, factor] {
      apply_factor(flows, link, factor, /*add=*/false);
    });
  };

  for (const TargetWindow& w : target_windows_) {
    const TargetLinks& links = targets.at(w.target);
    schedule_edges(links.write_link, w.start, w.end, w.factor);
    schedule_edges(links.read_link, w.start, w.end, w.factor);
  }
  for (const LinkWindow& w : link_windows_) {
    schedule_edges(w.link, w.start, w.end, w.factor);
  }
  for (const PermanentFailure& pf : permanent_failures_) {
    sched.schedule_callback(pf.time, [this, pf] {
      ++stats_.permanent_failures;
      if (permanent_handler_) permanent_handler_(pf.target, pf.time);
    });
  }
}

bool FaultPlan::target_down(std::size_t target, sim::TimePoint now) const {
  const auto it = outages_.find(target);
  if (it == outages_.end()) return false;
  for (const auto& [start, end] : it->second) {
    if (now >= start && now < end) return true;
  }
  return false;
}

bool FaultPlan::drop_rpc() {
  if (spec_.rpc_drop_rate <= 0.0) return false;
  if (op_rng_.next_double() >= spec_.rpc_drop_rate) return false;
  ++stats_.rpc_drops;
  return true;
}

bool FaultPlan::transient_error() {
  if (spec_.transient_error_rate <= 0.0) return false;
  if (op_rng_.next_double() >= spec_.transient_error_rate) return false;
  ++stats_.transient_errors;
  return true;
}

}  // namespace nws::fault

