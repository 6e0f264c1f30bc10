// Discrete-event scheduler.
//
// Single-threaded event loop over simulated time.  Events are ordered by
// (timestamp, insertion sequence) so execution is deterministic.  Root
// processes are spawned as detached coroutines; the run loop finishes when
// the event queue drains, and reports a deadlock if live processes remain
// blocked (e.g. a mutex never released).
//
// Timer callbacks are stored in a pooled slot table rather than per-event
// heap allocations: scheduling a callback costs no allocation in the steady
// state (slots are recycled through a free list, callables live in a
// small-buffer store, and Timer handles validate their slot through a
// generation counter).  This is the simulator's hottest allocation site —
// every simulated instant that changes the active flows arms a completion
// timer — so the pool is much of what nwsbench's sim.events_per_host_s
// measures.
//
// Two primitives let a subsystem batch the work of one simulated instant:
//
//   * at_instant_end(cb) runs `cb` once, after the last event at the current
//     time and before the clock moves on or the queue drains.  It is not an
//     event (events_executed does not count it).
//   * reserve_position() takes a place in the (time, sequence) order now; a
//     timer scheduled later at that position orders exactly as if it had
//     been scheduled at the reservation.
//
// net::FlowScheduler uses both: every flow change at an instant reserves the
// completion timer's position, and the instant's end solves once and arms
// the timer at the last reservation, so event order stays what it was when
// every change armed its own timer.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <new>
#include <queue>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/task.h"
#include "sim/time.h"

namespace nws::sim {

/// Thrown by Scheduler::run() when the queue drains while processes are
/// still blocked on primitives.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(std::size_t blocked)
      : std::runtime_error("simulation deadlock: " + std::to_string(blocked) +
                           " process(es) blocked with no pending events") {}
};

/// Type-erased move-only callable with small-buffer storage sized for the
/// simulator's timer lambdas (a couple of pointers); larger callables fall
/// back to the heap.  Unlike std::function this never allocates for the
/// common case and supports move-only captures.
class InlineCallback {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  InlineCallback() = default;
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  InlineCallback(InlineCallback&& other) noexcept { move_from(other); }
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  ~InlineCallback() { reset(); }

  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    reset();
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &heap_ops<Fn>;
    }
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// Destroys the stored callable (releasing its captures) without calling it.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  void operator()() {
    ops_->invoke(buf_);
  }

 private:
  struct Ops {
    void (*invoke)(unsigned char*);
    void (*destroy)(unsigned char*);
    void (*relocate)(unsigned char* dst, unsigned char* src);  // move + destroy src
  };

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](unsigned char* b) { (*std::launder(reinterpret_cast<Fn*>(b)))(); },
      [](unsigned char* b) { std::launder(reinterpret_cast<Fn*>(b))->~Fn(); },
      [](unsigned char* dst, unsigned char* src) {
        Fn* s = std::launder(reinterpret_cast<Fn*>(src));
        ::new (static_cast<void*>(dst)) Fn(std::move(*s));
        s->~Fn();
      },
  };

  template <typename Fn>
  static constexpr Ops heap_ops = {
      [](unsigned char* b) { (**std::launder(reinterpret_cast<Fn**>(b)))(); },
      [](unsigned char* b) { delete *std::launder(reinterpret_cast<Fn**>(b)); },
      [](unsigned char* dst, unsigned char* src) {
        ::new (static_cast<void*>(dst)) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
      },
  };

  void move_from(InlineCallback& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

/// Cancellable timer handle returned by schedule_callback().
///
/// Lifetime contract: the handle references a pooled slot through a
/// generation counter and a shared table, so cancel() and pending() are safe
/// after the timer fired, after repeated cancels, and even after the
/// Scheduler itself has been destroyed.  Cancelling releases the stored
/// callback immediately (captured resources are freed without waiting for
/// the event queue to reach the cancelled entry).
class Timer {
 public:
  Timer() = default;

  /// Cancels the pending callback; safe to call after firing, repeatedly, or
  /// after the scheduler is gone.
  void cancel();

  [[nodiscard]] bool pending() const;

 private:
  friend class Scheduler;

  struct Slot {
    InlineCallback callback;
    std::uint64_t generation = 0;  // bumped on recycle: stale handles miss
  };
  /// Shared between the scheduler and outstanding Timer handles; `dead`
  /// flips when the scheduler is destroyed (slots keep their storage until
  /// the last handle drops, but callbacks are released eagerly).
  struct SlotTable {
    std::deque<Slot> slots;       // deque: grows without relocating slots
    std::vector<std::uint32_t> free_slots;
    bool dead = false;
  };

  Timer(std::shared_ptr<SlotTable> table, std::uint32_t slot, std::uint64_t generation)
      : table_(std::move(table)), slot_(slot), generation_(generation) {}

  std::shared_ptr<SlotTable> table_;
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;
};

/// A place in the event order, taken by Scheduler::reserve_position().
struct QueuePosition {
  std::uint64_t seq = 0;
};

class Scheduler {
 public:
  Scheduler() : timers_(std::make_shared<Timer::SlotTable>()) {}
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler();

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Spawns a root process; it begins executing at the current simulated time
  /// once the run loop reaches it.
  void spawn(Task<void> task);

  /// Resumes `h` at absolute time `t` (>= now).
  void schedule_handle(TimePoint t, std::coroutine_handle<> h);

  /// Runs `cb` at absolute time `t`.  The returned Timer can cancel it.
  /// Steady-state cost: one slot-table lookup, no heap allocation (the
  /// callable lands in the slot's small-buffer store).
  /// An already type-erased callback (cross-partition outbox delivery)
  /// moves straight into the slot, with no second erasure layer.
  template <typename F>
  Timer schedule_callback(TimePoint t, F&& cb) {
    return schedule_at(t, next_seq_++, std::forward<F>(cb));
  }

  /// Runs `cb` at absolute time `t`, ordered among the events at `t` as if
  /// it had been scheduled when `pos` was reserved.
  template <typename F>
  Timer schedule_callback(TimePoint t, QueuePosition pos, F&& cb) {
    return schedule_at(t, pos.seq, std::forward<F>(cb));
  }

  /// Takes the next place in the event order for a timer scheduled later.
  [[nodiscard]] QueuePosition reserve_position() { return QueuePosition{next_seq_++}; }

  /// Runs `cb` once, after the last event at the current time: before the
  /// clock moves on, or before the queue drains.  Hooks run in registration
  /// order; a hook may schedule events and register further hooks.
  template <typename F>
  void at_instant_end(F&& cb) {
    instant_end_.emplace_back().emplace(std::forward<F>(cb));
  }

  /// Awaitable: suspends the current coroutine for `d` simulated time.
  auto delay(Duration d) {
    struct Awaiter {
      Scheduler& sched;
      Duration d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { sched.schedule_handle(sched.now_ + d, h); }
      void await_resume() const noexcept {}
    };
    if (d < 0) throw std::invalid_argument("negative delay");
    return Awaiter{*this, d};
  }

  /// Runs until the event queue is empty.  Throws DeadlockError if live
  /// processes remain, or rethrows the first unhandled process exception.
  void run();

  /// Executes the single next event, after running the instant-end hooks
  /// that are due before it; returns false once the queue is empty and no
  /// hook is left.
  bool step();

  /// Sentinel returned by next_event_time() for an empty queue.
  static constexpr TimePoint kNoEventTime = INT64_MAX;

  /// Timestamp of the next live event, pruning stale (cancelled/recycled)
  /// timer entries from the queue head and running the instant-end hooks
  /// that are due first; kNoEventTime when drained.  This is the
  /// partitioned run loop's window-bound probe.
  [[nodiscard]] TimePoint next_event_time();

  /// Executes every event with timestamp strictly below `horizon` and
  /// returns how many ran.  Events at or past the horizon stay queued; the
  /// clock stops at the last executed event (never advances to the horizon
  /// itself).  Conservative-window building block: a partition may run to
  /// min(neighbour clocks) + lookahead without missing a cross-partition
  /// arrival.
  std::uint64_t run_until(TimePoint horizon);

  /// First unhandled process exception, if any (run() rethrows it; the
  /// partitioned driver collects it across partitions instead).
  [[nodiscard]] std::exception_ptr first_error() const { return first_error_; }

  [[nodiscard]] std::size_t live_processes() const { return live_; }
  [[nodiscard]] std::uint64_t events_executed() const { return events_executed_; }

  /// Timer slot-pool introspection (regression coverage for eager slot
  /// recycling on cancel; the pool must not grow with cancelled timers).
  [[nodiscard]] std::size_t timer_slot_count() const { return timers_->slots.size(); }
  [[nodiscard]] std::size_t free_timer_slots() const { return timers_->free_slots.size(); }

 private:
  static constexpr std::uint32_t kNoTimer = 0xffffffffu;

  struct Event {
    TimePoint t;
    std::uint64_t seq;
    std::coroutine_handle<> handle;  // set for resumptions, null for timers
    std::uint32_t timer_slot = kNoTimer;
    std::uint64_t timer_generation = 0;
  };
  struct EventCompare {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  template <typename F>
  Timer schedule_at(TimePoint t, std::uint64_t seq, F&& cb) {
    if (t < now_) throw std::logic_error("schedule_callback in the past");
    const std::uint32_t slot = acquire_slot();
    Timer::Slot& s = timers_->slots[slot];
    if constexpr (std::is_same_v<std::decay_t<F>, InlineCallback>) {
      s.callback = std::forward<F>(cb);
    } else {
      s.callback.emplace(std::forward<F>(cb));
    }
    queue_.push(Event{t, seq, nullptr, slot, s.generation});
    return Timer{timers_, slot, s.generation};
  }

  std::uint32_t acquire_slot();
  void recycle_slot(std::uint32_t slot);
  /// Runs the first instant-end hook if it is due, that is, if no queued
  /// entry is left at the current time; false if none ran.
  bool run_due_hook();

  void note_process_done() { --live_; }
  void note_process_failed(std::exception_ptr e) {
    --live_;
    if (!first_error_) first_error_ = e;
  }

  // Detached wrapper coroutine that owns a root Task, reports its completion
  // (or failure) back to the scheduler, and self-destroys at the end.
  struct Detached {
    struct promise_type {
      Detached get_return_object() {
        return Detached{std::coroutine_handle<promise_type>::from_promise(*this)};
      }
      std::suspend_always initial_suspend() noexcept { return {}; }
      std::suspend_never final_suspend() noexcept { return {}; }
      void return_void() {}
      void unhandled_exception() { std::terminate(); }  // wrapper body catches everything
    };
    std::coroutine_handle<promise_type> handle;
  };
  static Detached run_root(Scheduler& sched, Task<void> task);

  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::size_t live_ = 0;
  std::exception_ptr first_error_;
  std::shared_ptr<Timer::SlotTable> timers_;
  std::priority_queue<Event, std::vector<Event>, EventCompare> queue_;
  std::vector<InlineCallback> instant_end_;  // hooks of the current instant
};

inline void Timer::cancel() {
  if (table_ && !table_->dead) {
    Slot& slot = table_->slots[slot_];
    if (slot.generation == generation_) {
      // Free captures now, not at queue drain, and recycle the slot eagerly:
      // the queued event goes stale through the generation bump, so cancelled
      // far-future timers no longer pin a slot until the queue reaches them.
      slot.callback.reset();
      ++slot.generation;
      table_->free_slots.push_back(slot_);
    }
  }
  table_.reset();
}

inline bool Timer::pending() const {
  if (!table_ || table_->dead) return false;
  return table_->slots[slot_].generation == generation_;
}

}  // namespace nws::sim
