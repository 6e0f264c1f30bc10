// Synchronisation primitives for simulated processes.
//
// All primitives are FIFO-fair and wake waiters through the scheduler at the
// current simulated time, which keeps event ordering deterministic and
// avoids unbounded recursion when long wait chains release.
//
//   Mutex     — serialises critical sections (e.g. a shared DAOS Key-Value
//               object's update path under contention).
//   Semaphore — bounded concurrency (e.g. per-target service threads).
//   Barrier   — cyclic barrier with the arrive-and-wait semantics IOR uses
//               for its pre-/post-I/O synchronisation points.
//   Gate      — manual open/close event; processes wait until opened (used to
//               separate the phases of access patterns A and B).
#pragma once

#include <coroutine>
#include <cstddef>
#include <deque>
#include <stdexcept>

#include "sim/scheduler.h"

namespace nws::sim {

class Mutex {
 public:
  explicit Mutex(Scheduler& sched) : sched_(sched) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  auto lock() {
    struct Awaiter {
      Mutex& m;
      bool await_ready() {
        if (!m.locked_) {
          m.locked_ = true;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) { m.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void unlock() {
    if (!locked_) throw std::logic_error("Mutex::unlock while not locked");
    if (waiters_.empty()) {
      locked_ = false;
      return;
    }
    // Hand the lock directly to the next waiter (stays locked).
    const auto next = waiters_.front();
    waiters_.pop_front();
    sched_.schedule_handle(sched_.now(), next);
  }

  [[nodiscard]] bool locked() const { return locked_; }

 private:
  Scheduler& sched_;
  bool locked_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

class Semaphore {
 public:
  Semaphore(Scheduler& sched, std::size_t permits) : sched_(sched), permits_(permits) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  auto acquire() {
    struct Awaiter {
      Semaphore& s;
      bool await_ready() {
        if (s.permits_ > 0) {
          --s.permits_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) { s.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void release() {
    if (!waiters_.empty()) {
      const auto next = waiters_.front();
      waiters_.pop_front();
      sched_.schedule_handle(sched_.now(), next);  // permit handed over directly
      return;
    }
    ++permits_;
  }

  [[nodiscard]] std::size_t available() const { return permits_; }

 private:
  Scheduler& sched_;
  std::size_t permits_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Cyclic barrier for `parties` processes.
class Barrier {
 public:
  Barrier(Scheduler& sched, std::size_t parties) : sched_(sched), parties_(parties) {
    if (parties == 0) throw std::invalid_argument("Barrier of zero parties");
  }
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  auto arrive_and_wait() {
    struct Awaiter {
      Barrier& b;
      bool await_ready() {
        if (b.arrived_ + 1 == b.parties_) {
          // Last arrival releases everyone and passes through.
          for (const auto h : b.waiters_) b.sched_.schedule_handle(b.sched_.now(), h);
          b.waiters_.clear();
          b.arrived_ = 0;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        ++b.arrived_;
        b.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Scheduler& sched_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Manual-reset event.  wait() completes immediately while open.
class Gate {
 public:
  explicit Gate(Scheduler& sched) : sched_(sched) {}
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  auto wait() {
    struct Awaiter {
      Gate& g;
      bool await_ready() const { return g.open_; }
      void await_suspend(std::coroutine_handle<> h) { g.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void open() {
    open_ = true;
    for (const auto h : waiters_) sched_.schedule_handle(sched_.now(), h);
    waiters_.clear();
  }

  void close() { open_ = false; }

 private:
  Scheduler& sched_;
  bool open_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Completion counter: processes signal once done; a waiter blocks until
/// `count` signals have been delivered.  Used by workload drivers to join a
/// phase's worth of processes.
class CountDownLatch {
 public:
  CountDownLatch(Scheduler& sched, std::size_t count) : sched_(sched), remaining_(count) {}
  CountDownLatch(const CountDownLatch&) = delete;
  CountDownLatch& operator=(const CountDownLatch&) = delete;

  void count_down() {
    if (remaining_ == 0) throw std::logic_error("CountDownLatch::count_down below zero");
    if (--remaining_ == 0) {
      for (const auto h : waiters_) sched_.schedule_handle(sched_.now(), h);
      waiters_.clear();
    }
  }

  auto wait() {
    struct Awaiter {
      CountDownLatch& l;
      bool await_ready() const { return l.remaining_ == 0; }
      void await_suspend(std::coroutine_handle<> h) { l.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Scheduler& sched_;
  std::size_t remaining_;
  std::deque<std::coroutine_handle<>> waiters_;
};

}  // namespace nws::sim
