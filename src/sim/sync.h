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
//   CountDownLatch — joins a phase's worth of processes.
//
// Every primitive keeps its waiters in a WaitQueue: a FIFO threaded through
// the waiters' own awaiters.  The awaiter of a co_await lives in the waiting
// coroutine's frame until the process resumes, so it carries the queue link
// (the coroutine handle and a `next` pointer).  Queuing and waking allocate
// nothing, and an idle queue is two pointers: the simulator holds one or two
// primitives per DAOS object, most of which nobody ever waits on.
//
// Invariant: a queued awaiter must outlive its wait.  Destroying a suspended
// waiter's frame while it is queued leaves the queue pointing into a dead
// frame, and the next hand-over reads it (ASan reports it there).
#pragma once

#include <coroutine>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "sim/scheduler.h"

namespace nws::sim {

/// FIFO of suspended processes, linked through their awaiters.
class WaitQueue {
 public:
  /// A waiter's place in the queue; a member of its awaiter.
  struct Link {
    std::coroutine_handle<> handle;
    Link* next = nullptr;
  };

  WaitQueue() = default;
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  [[nodiscard]] bool empty() const { return head_ == nullptr; }

  /// Queues the suspended `h` behind every earlier waiter, through `link`.
  void push(Link& link, std::coroutine_handle<> h) {
    link.handle = h;
    link.next = nullptr;
    if (tail_ == nullptr) {
      head_ = &link;
    } else {
      tail_->next = &link;
    }
    tail_ = &link;
  }

  /// Resumes the oldest waiter at the current time.  The queue must not be
  /// empty.
  void wake_one(Scheduler& sched) {
    Link* const oldest = head_;
    head_ = oldest->next;
    if (head_ == nullptr) tail_ = nullptr;
    sched.schedule_handle(sched.now(), oldest->handle);
  }

  /// Resumes every waiter at the current time, oldest first.
  void wake_all(Scheduler& sched) {
    Link* link = std::exchange(head_, nullptr);
    tail_ = nullptr;
    while (link != nullptr) {
      Link* const next = link->next;
      sched.schedule_handle(sched.now(), link->handle);
      link = next;
    }
  }

 private:
  Link* head_ = nullptr;
  Link* tail_ = nullptr;
};

class Mutex {
 public:
  explicit Mutex(Scheduler& sched) : sched_(sched) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  auto lock() {
    struct Awaiter {
      Mutex& m;
      WaitQueue::Link link{};
      bool await_ready() {
        if (!m.locked_) {
          m.locked_ = true;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) { m.waiters_.push(link, h); }
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
    waiters_.wake_one(sched_);
  }

  [[nodiscard]] bool locked() const { return locked_; }

 private:
  Scheduler& sched_;
  bool locked_ = false;
  WaitQueue waiters_;
};

class Semaphore {
 public:
  Semaphore(Scheduler& sched, std::size_t permits) : sched_(sched), permits_(permits) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  auto acquire() {
    struct Awaiter {
      Semaphore& s;
      WaitQueue::Link link{};
      bool await_ready() {
        if (s.permits_ > 0) {
          --s.permits_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) { s.waiters_.push(link, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void release() {
    if (!waiters_.empty()) {
      waiters_.wake_one(sched_);  // permit handed over directly
      return;
    }
    ++permits_;
  }

  [[nodiscard]] std::size_t available() const { return permits_; }

 private:
  Scheduler& sched_;
  std::size_t permits_;
  WaitQueue waiters_;
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
      WaitQueue::Link link{};
      bool await_ready() {
        if (b.arrived_ + 1 == b.parties_) {
          // Last arrival releases everyone and passes through.
          b.waiters_.wake_all(b.sched_);
          b.arrived_ = 0;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        ++b.arrived_;
        b.waiters_.push(link, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Scheduler& sched_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  WaitQueue waiters_;
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
      WaitQueue::Link link{};
      bool await_ready() const { return g.open_; }
      void await_suspend(std::coroutine_handle<> h) { g.waiters_.push(link, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void open() {
    open_ = true;
    waiters_.wake_all(sched_);
  }

  void close() { open_ = false; }

 private:
  Scheduler& sched_;
  bool open_ = false;
  WaitQueue waiters_;
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
    if (--remaining_ == 0) waiters_.wake_all(sched_);
  }

  auto wait() {
    struct Awaiter {
      CountDownLatch& l;
      WaitQueue::Link link{};
      bool await_ready() const { return l.remaining_ == 0; }
      void await_suspend(std::coroutine_handle<> h) { l.waiters_.push(link, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Scheduler& sched_;
  std::size_t remaining_;
  WaitQueue waiters_;
};

}  // namespace nws::sim
