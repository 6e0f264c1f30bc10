#include "net/flow.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nws::net {

namespace {
// Bytes below which a flow counts as finished (guards float round-off).
constexpr double kCompletionEpsilon = 0.5;
// Rate head-room treated as saturated during progressive filling.
constexpr double kRateEpsilon = 1e-6;
}  // namespace

LinkId FlowScheduler::add_link(Link link) {
  if (link.raw_capacity <= 0.0) throw std::invalid_argument("link capacity must be positive: " + link.name);
  links_.push_back(std::move(link));
  link_state_.emplace_back();
  return static_cast<LinkId>(links_.size() - 1);
}

void FlowScheduler::start_flow(std::vector<LinkId> path, double bytes, double rate_cap,
                               std::coroutine_handle<> h) {
  for (const LinkId id : path) {
    if (id >= links_.size()) throw std::out_of_range("flow path references unknown link");
  }
  // Written so NaN fails too: cap order needs a strict weak order.
  if (!(rate_cap > 0.0)) throw std::invalid_argument("flow rate cap must be positive");
  advance_progress();
  // Two arrivals read rates that an owed solve would have set before they
  // joined: one whose links are all idle keeps the others at their rates
  // and takes its solo rate, and one entering the lazy regime is rated from
  // the last solve's floor.  A full solve that includes the arrival differs
  // in the last bit, so the owed solve runs first.
  if (solve_owed_ && (flows_.size() >= lazy_threshold_ || links_idle(path))) recompute_rates();
  Flow flow;
  flow.remaining = bytes;
  flow.total = bytes;
  flow.waiter = h;
  flow.cls = join_class(std::move(path), rate_cap);
  if (obs::TraceRecorder* tr = obs::current_trace()) {
    // Flow lifetimes render on a synthetic "network" process; a rotating
    // lane keeps concurrent flows on separate rows in the viewer.
    flow.span = tr->begin("flow", "net", obs::Actor{obs::kNetworkNode, trace_lane_++ % 32}, 0, bytes);
  }
  flows_.push_back(flow);
  ++stats_.flows_started;
  stats_.peak_concurrent = std::max(stats_.peak_concurrent, flows_.size());
  settle(flows_.size() - 1);
}

FlowScheduler::ClassId FlowScheduler::join_class(std::vector<LinkId>&& path, double cap) {
  // Every link on a class's path lists the class: search the shortest list.
  const std::vector<ClassId>* candidates = &link_state_[path.front()].classes;
  for (const LinkId id : path) {
    if (link_state_[id].classes.size() < candidates->size()) candidates = &link_state_[id].classes;
  }
  ClassId cls = 0;
  const auto found = std::find_if(candidates->begin(), candidates->end(), [&](ClassId c) {
    return classes_[c].cap == cap && classes_[c].path == path;
  });
  if (found != candidates->end()) {
    cls = *found;
  } else {
    if (free_classes_.empty()) {
      cls = static_cast<ClassId>(classes_.size());
      classes_.emplace_back();
    } else {
      cls = free_classes_.back();
      free_classes_.pop_back();
    }
    FlowClass& c = classes_[cls];
    c.path = std::move(path);
    c.cap = cap;
    c.active_pos = active_classes_.size();
    active_classes_.push_back(cls);
    for (const LinkId id : c.path) link_state_[id].classes.push_back(cls);
    if (std::isfinite(cap)) {
      const std::pair<double, ClassId> key{cap, cls};
      cap_order_.insert(std::lower_bound(cap_order_.begin(), cap_order_.end(), key), key);
    }
  }
  FlowClass& c = classes_[cls];
  ++c.members;
  for (const LinkId id : c.path) {
    LinkState& s = link_state_[id];
    if (s.flows++ == 0) {
      s.active_pos = active_links_.size();
      active_links_.push_back(id);
    }
  }
  return cls;
}

bool FlowScheduler::leave_class(ClassId cls) {
  FlowClass& c = classes_[cls];
  bool shared = false;
  for (const LinkId id : c.path) {
    LinkState& s = link_state_[id];
    if (--s.flows > 0) {
      shared = true;
      continue;
    }
    const LinkId moved = active_links_.back();
    active_links_[s.active_pos] = moved;
    link_state_[moved].active_pos = s.active_pos;
    active_links_.pop_back();
  }
  if (--c.members > 0) return shared;

  for (const LinkId id : c.path) {
    std::vector<ClassId>& on_link = link_state_[id].classes;
    *std::find(on_link.begin(), on_link.end(), cls) = on_link.back();
    on_link.pop_back();
  }
  if (std::isfinite(c.cap)) {
    cap_order_.erase(std::lower_bound(cap_order_.begin(), cap_order_.end(), std::pair{c.cap, cls}));
  }
  const ClassId moved = active_classes_.back();
  active_classes_[c.active_pos] = moved;
  classes_[moved].active_pos = c.active_pos;
  active_classes_.pop_back();
  free_classes_.push_back(cls);
  return shared;
}

void FlowScheduler::set_capacity_factor(LinkId id, double factor) {
  if (id >= links_.size()) throw std::out_of_range("set_capacity_factor on unknown link");
  if (factor < 0.0) throw std::invalid_argument("negative link capacity factor");
  capacity_modulated_ = true;
  advance_progress();
  links_[id].capacity_factor = factor;
  if (!flows_.empty()) {
    changes_since_full_ = 0;  // force an exact solve: capacities moved under us
    recompute_rates();
  }
  settle();
}

void FlowScheduler::advance_progress() {
  const sim::TimePoint now = sched_.now();
  const double dt = sim::to_seconds(now - last_update_);
  last_update_ = now;
  if (dt <= 0.0) return;
  for (Flow& f : flows_) {
    f.remaining -= f.rate * dt;
    if (f.remaining < 0.0) f.remaining = 0.0;
  }
}

bool FlowScheduler::links_idle(const std::vector<LinkId>& path) const {
  return std::all_of(path.begin(), path.end(), [&](LinkId id) { return link_state_[id].flows == 0; });
}

bool FlowScheduler::links_private_to(const Flow& f) const {
  for (const LinkId id : classes_[f.cls].path) {
    if (link_state_[id].flows != 1) return false;
  }
  return true;
}

double FlowScheduler::solo_rate(const Flow& f) const {
  const FlowClass& c = classes_[f.cls];
  double rate = c.cap;
  for (const LinkId id : c.path) {
    rate = std::min(rate, links_[id].effective_capacity(1));
  }
  return rate;
}

void FlowScheduler::maybe_recompute(Flow* added, bool shared_departure) {
  if (flows_.size() <= lazy_threshold_) {
    // Exact regime.  Changes disjoint from every other flow cannot move any
    // other flow's max-min rate: an arrival whose links carry nothing else
    // just takes its solo bottleneck rate, and a departure that left its
    // links empty needs no adjustment at all.  Everything else re-solves.
    const bool arrival_disjoint = added != nullptr && links_private_to(*added);
    changes_since_full_ = 0;
    if (!shared_departure && (added == nullptr || arrival_disjoint)) {
      if (added != nullptr) added->rate = solo_rate(*added);
      return;
    }
    solve_owed_ = true;
    return;
  }
  // Bounded-staleness regime: exact solve periodically; in between, an added
  // flow simply starts at the last fair-share floor (capped), and departures
  // leave the remaining rates untouched until the next full solve.  See
  // set_lazy_recompute() for the error bound.
  if (++changes_since_full_ >= lazy_interval_) {
    changes_since_full_ = 0;
    solve_owed_ = true;
    return;
  }
  if (added != nullptr) {
    const double cap = classes_[added->cls].cap;
    added->rate = fair_share_floor_ > 0.0 ? std::min(cap, fair_share_floor_) : cap;
    if (!std::isfinite(added->rate)) added->rate = fair_share_floor_;
    if (added->rate <= 0.0) {
      changes_since_full_ = 0;
      solve_owed_ = true;
    }
  }
}

void FlowScheduler::recompute_rates() {
  solve_owed_ = false;
  ++stats_.rate_recomputations;
  if (flows_.empty()) return;

  // Progressive filling over classes: raise every unfrozen class's rate
  // uniformly until a link saturates or a class hits its own cap; freeze and
  // repeat.  Effective capacities follow the maintained per-link flow counts.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double link_delta = kInf;  // smallest residual / unfrozen over live links
  live_links_ = active_links_;
  for (const LinkId l : live_links_) {
    LinkState& s = link_state_[l];
    s.residual = links_[l].effective_capacity(s.flows);
    s.saturated_below = kRateEpsilon * links_[l].raw_capacity;
    s.unfrozen = s.flows;
    link_delta = std::min(link_delta, s.residual / static_cast<double>(s.unfrozen));
  }
  for (const ClassId c : active_classes_) classes_[c].frozen = false;
  std::size_t unfrozen_classes = active_classes_.size();
  std::size_t cap_head = 0;  // cap_order_ before this index is frozen
  double level = 0.0;
  const auto freeze = [&](FlowClass& c) {
    c.frozen = true;
    c.rate = level;
    --unfrozen_classes;
    for (const LinkId id : c.path) link_state_[id].unfrozen -= c.members;
  };

  while (true) {
    // Smallest increment that saturates some constraint.
    double delta = link_delta;
    while (cap_head < cap_order_.size() && classes_[cap_order_[cap_head].second].frozen) ++cap_head;
    if (cap_head < cap_order_.size()) delta = std::min(delta, cap_order_[cap_head].first - level);
    if (!std::isfinite(delta)) throw std::logic_error("max-min fill diverged (uncapped flow on no links?)");
    if (delta < 0.0) delta = 0.0;

    level += delta;
    saturated_.clear();
    for (const LinkId l : live_links_) {
      LinkState& s = link_state_[l];
      s.residual -= delta * static_cast<double>(s.unfrozen);
      if (s.residual <= s.saturated_below) saturated_.push_back(l);
    }

    // Freeze classes that sit on a saturated link or hit their cap.
    const std::size_t unfrozen_before = unfrozen_classes;
    for (const LinkId l : saturated_) {
      for (const ClassId c : link_state_[l].classes) {
        if (!classes_[c].frozen) freeze(classes_[c]);
      }
    }
    for (; cap_head < cap_order_.size() && cap_order_[cap_head].first - level <= kRateEpsilon; ++cap_head) {
      FlowClass& c = classes_[cap_order_[cap_head].second];
      if (!c.frozen) freeze(c);
    }
    if (unfrozen_classes == 0) break;
    if (unfrozen_classes == unfrozen_before) {
      // Numerical corner: nothing saturated exactly; freeze everything at
      // the current level to guarantee termination.
      for (const ClassId c : active_classes_) {
        if (!classes_[c].frozen) classes_[c].rate = level;
      }
      break;
    }

    // Drop links left without unfrozen flows; the rest bound the next delta.
    link_delta = kInf;
    std::size_t kept = 0;
    for (const LinkId l : live_links_) {
      const LinkState& s = link_state_[l];
      if (s.unfrozen == 0) continue;
      live_links_[kept++] = l;
      link_delta = std::min(link_delta, s.residual / static_cast<double>(s.unfrozen));
    }
    live_links_.resize(kept);
  }

  double floor = kInf;
  for (const ClassId c : active_classes_) {
    if (classes_[c].rate > 0.0) floor = std::min(floor, classes_[c].rate);
  }
  fair_share_floor_ = std::isfinite(floor) ? floor : 0.0;
  for (Flow& f : flows_) f.rate = classes_[f.cls].rate;
}

void FlowScheduler::settle(std::size_t added_idx) {
  completion_timer_.cancel();

  // Complete flows that are done as of now, tracking where the just-added
  // flow ends up under swap-removal and whether any departure left other
  // flows behind on a shared link (those flows' rates may now rise).  The
  // first settle of an instant completes every finished flow, and progress
  // does not move until the clock does, so a later one checks only its
  // arrival, the back element.
  std::size_t i = 0;
  if (settled_at_ == sched_.now()) i = added_idx == kNoFlow ? flows_.size() : added_idx;
  settled_at_ = sched_.now();
  bool completed_any = false;
  bool shared_departure = false;
  while (i < flows_.size()) {
    if (flows_[i].remaining <= kCompletionEpsilon) {
      if (leave_class(flows_[i].cls)) shared_departure = true;
      const auto waiter = flows_[i].waiter;
      if (flows_[i].span != 0) {
        if (obs::TraceRecorder* tr = obs::current_trace()) tr->end(flows_[i].span);
      }
      stats_.bytes_delivered += flows_[i].total;
      ++stats_.flows_completed;
      if (i == added_idx) {
        added_idx = kNoFlow;  // the arrival itself finished instantly
      } else if (flows_.size() - 1 == added_idx) {
        added_idx = i;  // the arrival is the back element being swapped in
      }
      flows_[i] = std::move(flows_.back());
      flows_.pop_back();
      completed_any = true;
      sched_.schedule_handle(sched_.now(), waiter);
    } else {
      ++i;
    }
  }
  // One rate update for the combined change, even when an arrival and one or
  // more completions coincide.
  Flow* added = added_idx == kNoFlow ? nullptr : &flows_[added_idx];
  if (completed_any || added != nullptr) maybe_recompute(added, shared_departure);
  // The timer takes this settle's place in the event order, as if armed now.
  timer_position_ = sched_.reserve_position();
  if (!end_instant_armed_) {
    end_instant_armed_ = true;
    sched_.at_instant_end([this] { end_instant(); });
  }
}

void FlowScheduler::end_instant() {
  end_instant_armed_ = false;
  // A full solve is a pure function of the active set, so only the last one
  // owed at this instant counts.
  if (solve_owed_) recompute_rates();
  if (flows_.empty()) return;

  // Earliest next completion (seconds), rounded up to a whole nanosecond so
  // the timer never re-fires at the current instant.
  double min_time = std::numeric_limits<double>::infinity();
  for (const Flow& f : flows_) {
    if (f.rate > 0.0) min_time = std::min(min_time, f.remaining / f.rate);
  }
  if (!std::isfinite(min_time)) {
    // Every active flow is stalled.  Under capacity modulation this is an
    // outage window: a scheduled restore event will recompute rates, so no
    // completion timer is needed (and a genuine hang still surfaces as a
    // scheduler deadlock).  Without modulation it is a model error.
    if (capacity_modulated_) return;
    throw std::logic_error("active flows with zero rate: link capacities exhausted");
  }
  auto delta = static_cast<sim::Duration>(std::ceil(min_time * 1e9));
  if (delta < 1) delta = 1;
  completion_timer_ = sched_.schedule_callback(sched_.now() + delta, timer_position_, [this] {
    advance_progress();
    settle();
  });
}

std::vector<double> FlowScheduler::current_rates() const {
  std::vector<double> rates;
  rates.reserve(flows_.size());
  for (const Flow& f : flows_) rates.push_back(f.rate);
  return rates;
}

std::vector<FlowScheduler::ActiveFlow> FlowScheduler::active_flow_specs() const {
  std::vector<ActiveFlow> specs;
  specs.reserve(flows_.size());
  for (const Flow& f : flows_) specs.push_back({classes_[f.cls].path, classes_[f.cls].cap});
  return specs;
}

std::size_t FlowScheduler::flows_on_link(LinkId id) const {
  std::size_t n = 0;
  for (const Flow& f : flows_) {
    const std::vector<LinkId>& path = classes_[f.cls].path;
    n += static_cast<std::size_t>(std::count(path.begin(), path.end(), id));
  }
  return n;
}

}  // namespace nws::net
