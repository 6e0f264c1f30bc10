#include "sim/partition.h"

#include <algorithm>
#include <barrier>
// NWSLINT(allow-file:determinism): steady_clock here only measures barrier-wait wall time for PartitionRunStats; it never feeds simulated time, seeds, or report output
#include <chrono>
#include <stdexcept>
#include <thread>

namespace nws::sim {

PartitionedScheduler::PartitionedScheduler(PartitionConfig config) : config_(std::move(config)) {
  if (config_.partitions == 0) throw std::invalid_argument("partitions must be >= 1");
  if (config_.partitions > 1 && config_.lookahead <= 0) {
    // No window is safe: a cross-partition event could land anywhere in it.
    throw std::invalid_argument("more than one partition needs a positive lookahead");
  }
  parts_.reserve(config_.partitions);
  for (std::size_t p = 0; p < config_.partitions; ++p) {
    parts_.push_back(std::make_unique<Part>());
    parts_.back()->outbox.resize(config_.partitions);
  }
}

PartitionedScheduler::~PartitionedScheduler() = default;

void PartitionedScheduler::check_post(std::size_t from, std::size_t to, TimePoint t) const {
  if (from >= parts_.size() || to >= parts_.size()) {
    throw std::out_of_range("cross-partition post: bad partition index");
  }
  if (from == to) throw std::logic_error("cross-partition post to own partition");
  if (!windowed_) throw std::logic_error("cross-partition post outside a running window");
  if (parts_[from]->sched.now() < parts_[from]->promise) {
    // The window bound trusted this promise: another partition may already
    // run past now + lookahead.
    throw std::logic_error("cross-partition post before its partition's promise");
  }
  if (t < horizon_) {
    // Delivering below the horizon would mean another partition may already
    // have executed past t — the conservative invariant is broken, which
    // points at a lookahead smaller than the real cross-partition latency.
    throw std::logic_error("cross-partition post below window horizon: lookahead violated");
  }
}

void PartitionedScheduler::promise(std::size_t p, TimePoint t) {
  if (p >= parts_.size()) throw std::out_of_range("cross-partition promise: bad partition index");
  Part& part = *parts_[p];
  if (t < part.promise) throw std::logic_error("cross-partition promise lowered");
  part.promise = t;
}

void PartitionedScheduler::exec_slice(std::size_t p, TimePoint horizon) {
  Part& part = *parts_[p];
  if (part.error) return;  // poisoned: stop advancing, run() terminates at the barrier
  if (config_.slice_scope) config_.slice_scope(p, true);
  std::uint64_t ran = 0;
  try {
    ran = part.sched.run_until(horizon);
  } catch (...) {
    part.error = std::current_exception();
  }
  if (config_.slice_scope) config_.slice_scope(p, false);
  if (ran == 0) ++part.null_windows;
}

void PartitionedScheduler::deliver_cross_events() {
  // Canonical delivery order — (destination, source, send order) — keeps the
  // destination's (t, seq) tie-break identical for every worker count.  A
  // partition's outbox to itself stays empty: post() rejects self-sends.
  for (std::size_t to = 0; to < parts_.size(); ++to) {
    Scheduler& dst = parts_[to]->sched;
    for (const auto& src : parts_) {
      std::vector<CrossEvent>& box = src->outbox[to];
      for (CrossEvent& ev : box) dst.schedule_callback(ev.t, std::move(ev.callback));
      stats_.cross_events += box.size();
      box.clear();
    }
  }
}

bool PartitionedScheduler::open_next_window() {
  TimePoint w = Scheduler::kNoEventTime;
  bool pending = false;
  for (const auto& part : parts_) {
    // Checked first: a poisoned partition may have stopped mid-instant, and
    // next_event_time() would run that instant's end hooks here.
    if (part->error) return false;  // terminate: run() rethrows
    const TimePoint next = part->sched.next_event_time();
    pending = pending || next != Scheduler::kNoEventTime;
    w = std::min(w, std::max(next, part->promise));
  }
  // Saturate: when every partition promises never, the window is unbounded.
  horizon_ = w > Scheduler::kNoEventTime - config_.lookahead ? Scheduler::kNoEventTime
                                                             : w + config_.lookahead;
  return pending;
}

void PartitionedScheduler::run_windowed() {
  const std::size_t workers = stats_.workers_used;
  windowed_ = true;
  bool done = !open_next_window();

  // Completion step: runs on exactly one thread after all workers arrive, and
  // its effects happen-before every worker's release from the barrier — so
  // the outbox drain, the stats updates, and the horizon/done writes need no
  // extra synchronisation.
  auto on_window_complete = [&]() noexcept {
    deliver_cross_events();
    ++stats_.windows;
    done = !open_next_window();
  };
  std::barrier barrier(static_cast<std::ptrdiff_t>(workers), on_window_complete);

  std::vector<double> wait_seconds(workers, 0.0);  // one slot per worker
  auto worker_loop = [&](std::size_t w) {
    double waited = 0;
    while (!done) {
      for (std::size_t p = w; p < parts_.size(); p += workers) exec_slice(p, horizon_);
      const auto wait_start = std::chrono::steady_clock::now();
      barrier.arrive_and_wait();
      waited += std::chrono::duration<double>(std::chrono::steady_clock::now() - wait_start).count();
    }
    wait_seconds[w] = waited;
  };

  // Worker 0 is the calling thread; a single worker starts no thread.
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) threads.emplace_back(worker_loop, w);
  worker_loop(0);
  for (std::thread& t : threads) t.join();
  // A lone worker never waits for another; its barrier only runs the
  // completion step.
  if (workers > 1) {
    for (const double s : wait_seconds) stats_.barrier_wait_seconds += s;
  }
  windowed_ = false;
}

void PartitionedScheduler::finish_run() {
  for (const auto& part : parts_) {
    stats_.events_executed += part->sched.events_executed();
    stats_.null_windows += part->null_windows;
  }
  for (const auto& part : parts_) {
    if (part->error) std::rethrow_exception(part->error);
    if (auto err = part->sched.first_error()) std::rethrow_exception(err);
  }
  std::size_t live = 0;
  for (const auto& part : parts_) live += part->sched.live_processes();
  if (live > 0) throw DeadlockError(live);
}

void PartitionedScheduler::run() {
  stats_ = PartitionRunStats{};
  stats_.partitions = parts_.size();
  stats_.workers_used = std::clamp<std::size_t>(config_.workers, 1, parts_.size());

  if (parts_.size() == 1) {
    Part& part = *parts_[0];
    if (config_.slice_scope) config_.slice_scope(0, true);
    try {
      part.sched.run_until(Scheduler::kNoEventTime);
    } catch (...) {
      part.error = std::current_exception();
    }
    if (config_.slice_scope) config_.slice_scope(0, false);
  } else {
    run_windowed();
  }
  finish_run();
}

}  // namespace nws::sim
