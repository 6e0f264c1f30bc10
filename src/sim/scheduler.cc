#include "sim/scheduler.h"

namespace nws::sim {

Scheduler::Detached Scheduler::run_root(Scheduler& sched, Task<void> task) {
  try {
    co_await std::move(task);
    sched.note_process_done();
  } catch (...) {
    sched.note_process_failed(std::current_exception());
  }
}

Scheduler::~Scheduler() {
  // Outstanding Timer handles keep the slot table alive, but stored
  // callbacks (and their captures) are released with the scheduler, matching
  // the old behaviour of dropping the queue's callback ownership here.
  timers_->dead = true;
  for (Timer::Slot& slot : timers_->slots) slot.callback.reset();
}

void Scheduler::spawn(Task<void> task) {
  if (!task.valid()) throw std::invalid_argument("spawn of empty task");
  ++live_;
  const Detached wrapper = run_root(*this, std::move(task));
  schedule_handle(now_, wrapper.handle);
}

void Scheduler::schedule_handle(TimePoint t, std::coroutine_handle<> h) {
  if (t < now_) throw std::logic_error("schedule_handle in the past");
  queue_.push(Event{t, next_seq_++, h, kNoTimer, 0});
}

std::uint32_t Scheduler::acquire_slot() {
  if (!timers_->free_slots.empty()) {
    const std::uint32_t slot = timers_->free_slots.back();
    timers_->free_slots.pop_back();
    return slot;
  }
  timers_->slots.emplace_back();
  return static_cast<std::uint32_t>(timers_->slots.size() - 1);
}

void Scheduler::recycle_slot(std::uint32_t slot) {
  Timer::Slot& s = timers_->slots[slot];
  ++s.generation;  // outstanding handles to the old incarnation go stale
  timers_->free_slots.push_back(slot);
}

bool Scheduler::run_due_hook() {
  if (instant_end_.empty() || (!queue_.empty() && queue_.top().t == now_)) return false;
  // Taken out before it runs: a hook that throws is not run again.
  InlineCallback hook = std::move(instant_end_.front());
  instant_end_.erase(instant_end_.begin());
  hook();
  return true;
}

bool Scheduler::step() {
  for (;;) {
    if (run_due_hook()) continue;
    if (queue_.empty()) return false;
    Event ev = queue_.top();
    queue_.pop();
    if (ev.timer_slot != kNoTimer) {
      Timer::Slot& slot = timers_->slots[ev.timer_slot];
      // Stale entry: the slot was recycled, either because the timer was
      // cancelled (cancel() bumps the generation and frees the slot eagerly)
      // or because it already fired and the slot hosts a new incarnation.
      if (slot.generation != ev.timer_generation) continue;
      now_ = ev.t;
      ++events_executed_;
      // Detach the callback before invoking: the callback may cancel or
      // reassign the Timer handle — or schedule a new timer into this very
      // slot — and a fired timer must not keep captured resources alive
      // afterwards.
      InlineCallback callback = std::move(slot.callback);
      slot.callback.reset();
      recycle_slot(ev.timer_slot);
      callback();
      return true;
    }
    now_ = ev.t;
    ++events_executed_;
    ev.handle.resume();
    return true;
  }
}

TimePoint Scheduler::next_event_time() {
  for (;;) {
    if (!queue_.empty()) {
      const Event& ev = queue_.top();
      if (ev.timer_slot != kNoTimer &&
          timers_->slots[ev.timer_slot].generation != ev.timer_generation) {
        queue_.pop();  // cancelled or recycled: will never fire
        continue;
      }
    }
    if (run_due_hook()) continue;
    return queue_.empty() ? kNoEventTime : queue_.top().t;
  }
}

std::uint64_t Scheduler::run_until(TimePoint horizon) {
  std::uint64_t executed = 0;
  for (;;) {
    const TimePoint t = next_event_time();
    if (t >= horizon) return executed;  // kNoEventTime is past any horizon
    step();
    ++executed;
  }
}

void Scheduler::run() {
  while (step()) {
  }
  if (first_error_) {
    auto e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
  if (live_ > 0) throw DeadlockError(live_);
}

}  // namespace nws::sim
