// Unit tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "sim/scheduler.h"
#include "sim/sync.h"
#include "sim/time.h"

// Every global operator new in this binary is counted, so a test can assert
// that a stretch of simulation allocates nothing (SyncTest).
namespace {
std::atomic<std::uint64_t> operator_new_calls{0};
}  // namespace

// Not inlined: GCC's -Wmismatched-new-delete would see malloc() paired with
// operator delete, or operator new with free().
[[gnu::noinline]] void* operator new(std::size_t size) {
  operator_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace nws::sim {
namespace {

TEST(SimTime, Conversions) {
  EXPECT_EQ(seconds(1.0), 1000000000);
  EXPECT_EQ(milliseconds(1.5), 1500000);
  EXPECT_EQ(microseconds(2.0), 2000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2.5)), 2.5);
}

TEST(SimTime, TransferTimeRoundsUp) {
  EXPECT_EQ(transfer_time(0.0, 1e9), 0);
  EXPECT_GE(transfer_time(1.0, 1e30), 1);  // never zero for nonzero bytes
  // 1 GiB at 1 GiB/s = 1 s.
  EXPECT_EQ(transfer_time(1073741824.0, 1073741824.0), kSecond);
}

TEST(Scheduler, DelayAdvancesClock) {
  Scheduler sched;
  TimePoint end = -1;
  sched.spawn([](Scheduler& s, TimePoint& out) -> Task<void> {
    co_await s.delay(seconds(1.5));
    out = s.now();
  }(sched, end));
  sched.run();
  EXPECT_EQ(end, seconds(1.5));
  EXPECT_EQ(sched.live_processes(), 0u);
}

TEST(Scheduler, EventsOrderedByTimeThenSequence) {
  Scheduler sched;
  std::vector<int> order;
  auto proc = [](Scheduler& s, std::vector<int>& out, int id, Duration d) -> Task<void> {
    co_await s.delay(d);
    out.push_back(id);
  };
  sched.spawn(proc(sched, order, 1, seconds(2)));
  sched.spawn(proc(sched, order, 2, seconds(1)));
  sched.spawn(proc(sched, order, 3, seconds(1)));  // same time as 2: spawn order wins
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

TEST(Scheduler, NestedTaskCallChain) {
  Scheduler sched;
  auto inner = [](Scheduler& s) -> Task<int> {
    co_await s.delay(seconds(1));
    co_return 21;
  };
  auto middle = [&inner](Scheduler& s) -> Task<int> {
    const int v = co_await inner(s);
    co_return v * 2;
  };
  int result = 0;
  sched.spawn([](Scheduler& s, decltype(middle)& mid, int& out) -> Task<void> {
    out = co_await mid(s);
  }(sched, middle, result));
  sched.run();
  EXPECT_EQ(result, 42);
}

TEST(Scheduler, DeepCallChainDoesNotOverflowStack) {
  Scheduler sched;
  // 100k-deep recursive awaits: passes only with symmetric transfer.  ASan
  // instrumentation defeats the tail calls symmetric transfer compiles to,
  // so resume chains legitimately consume native stack there — keep the
  // depth well inside the stack limit under sanitizers.
#if defined(__SANITIZE_ADDRESS__)
  constexpr int kDepth = 2000;
#else
  constexpr int kDepth = 100000;
#endif
  struct Rec {
    static Task<int> down(Scheduler& s, int depth) {
      if (depth == 0) {
        co_await s.delay(1);
        co_return 0;
      }
      const int v = co_await down(s, depth - 1);
      co_return v + 1;
    }
  };
  int result = -1;
  sched.spawn([](Scheduler& s, int& out) -> Task<void> { out = co_await Rec::down(s, kDepth); }(sched, result));
  sched.run();
  EXPECT_EQ(result, kDepth);
}

TEST(Scheduler, ExceptionPropagatesToRun) {
  Scheduler sched;
  sched.spawn([](Scheduler& s) -> Task<void> {
    co_await s.delay(1);
    throw std::runtime_error("boom");
  }(sched));
  EXPECT_THROW(sched.run(), std::runtime_error);
}

TEST(Scheduler, ExceptionCrossesTaskBoundary) {
  Scheduler sched;
  auto thrower = [](Scheduler& s) -> Task<int> {
    co_await s.delay(1);
    throw std::runtime_error("inner failure");
  };
  bool caught = false;
  sched.spawn([](Scheduler& s, decltype(thrower)& t, bool& out) -> Task<void> {
    try {
      (void)co_await t(s);
    } catch (const std::runtime_error&) {
      out = true;
    }
  }(sched, thrower, caught));
  sched.run();
  EXPECT_TRUE(caught);
}

TEST(Scheduler, CallbackTimersFireAndCancel) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_callback(seconds(1), [&] { ++fired; });
  Timer cancelled = sched.schedule_callback(seconds(2), [&] { ++fired; });
  cancelled.cancel();
  EXPECT_FALSE(cancelled.pending());
  sched.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), seconds(1));  // cancelled event did not advance time
}

TEST(Scheduler, TimerCancelSafeAfterSchedulerDestroyed) {
  // A fault plan (or any subsystem) may hold Timers beyond the simulation's
  // life; cancel() must not touch freed scheduler memory.
  Timer survivor;
  {
    Scheduler sched;
    survivor = sched.schedule_callback(seconds(1), [] {});
    EXPECT_TRUE(survivor.pending());
  }
  survivor.cancel();  // scheduler is gone: must be a no-op, not a use-after-free
  EXPECT_FALSE(survivor.pending());
  survivor.cancel();  // idempotent
}

TEST(Scheduler, FiredTimerNotPendingAndCancelHarmless) {
  Scheduler sched;
  int fired = 0;
  Timer timer = sched.schedule_callback(seconds(1), [&] { ++fired; });
  sched.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.pending());  // fired, so no longer pending
  timer.cancel();                 // cancelling after the fact changes nothing
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.pending());
}

TEST(Scheduler, CancelledTimerSlotRecycledEagerly) {
  // Regression: cancelled slots used to be reclaimed only when the queue
  // drained the dead event, so a schedule-then-cancel loop with far-future
  // deadlines (the retry/fault-plan pattern) grew the slot table without
  // bound.  Cancel must return the slot to the free list immediately.
  Scheduler sched;
  for (int i = 0; i < 1000; ++i) {
    Timer t = sched.schedule_callback(seconds(1000), [] {});
    t.cancel();
  }
  EXPECT_LE(sched.timer_slot_count(), 2u);
  EXPECT_EQ(sched.free_timer_slots(), sched.timer_slot_count());
  // A live timer still fires correctly through the 1000 dead queued events.
  int fired = 0;
  sched.schedule_callback(seconds(1), [&] { ++fired; });
  sched.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), seconds(1));  // dead events do not advance time
}

TEST(Scheduler, StaleHandleCannotCancelRecycledSlot) {
  // With eager recycling a cancelled Timer's slot may be reused while the
  // old handle is still alive; the generation counter must make the stale
  // handle inert.
  Scheduler sched;
  int fired = 0;
  Timer a = sched.schedule_callback(seconds(1), [&] { fired += 1; });
  a.cancel();
  Timer b = sched.schedule_callback(seconds(2), [&] { fired += 10; });  // reuses a's slot
  EXPECT_FALSE(a.pending());
  EXPECT_TRUE(b.pending());
  a.cancel();  // stale generation: must not disturb b
  EXPECT_TRUE(b.pending());
  sched.run();
  EXPECT_EQ(fired, 10);
}

TEST(Scheduler, TimerCancelReleasesCallbackCaptures) {
  // cancel() must drop the stored std::function immediately so captured
  // resources are freed before the queue drains the dead event.
  Scheduler sched;
  auto resource = std::make_shared<int>(7);
  Timer timer = sched.schedule_callback(seconds(1), [resource] { (void)*resource; });
  EXPECT_EQ(resource.use_count(), 2);
  timer.cancel();
  EXPECT_EQ(resource.use_count(), 1);  // the capture is gone right away
  sched.run();
  EXPECT_EQ(resource.use_count(), 1);
}

TEST(Scheduler, InstantEndHookRunsAfterTheInstantsLastEvent) {
  // The hook waits for every event at its time, including one that an event
  // of that instant schedules for the same time, and runs before any later
  // event.  It runs once and is not an event.
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_callback(seconds(1), [&] {
    order.push_back(1);
    sched.at_instant_end([&] { order.push_back(0); });
    sched.schedule_callback(seconds(1), [&] { order.push_back(3); });
  });
  sched.schedule_callback(seconds(1), [&] { order.push_back(2); });
  sched.schedule_callback(seconds(2), [&] { order.push_back(4); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 0, 4}));
  EXPECT_EQ(sched.events_executed(), 4u);
}

TEST(Scheduler, InstantEndHookRunsBeforeTheQueueDrains) {
  // The instant's last event leaves the queue empty: run() still runs the
  // hook, and then the timer that the hook queued.
  Scheduler sched;
  TimePoint fired_at = -1;
  sched.schedule_callback(seconds(1), [&] {
    sched.at_instant_end([&] { sched.schedule_callback(seconds(3), [&] { fired_at = sched.now(); }); });
  });
  sched.run();
  EXPECT_EQ(fired_at, seconds(3));
  EXPECT_EQ(sched.events_executed(), 2u);
}

TEST(Scheduler, RunUntilRunsADueHookAndItsTimer) {
  // A partition window ends at its horizon: the hook of the window's last
  // instant runs inside run_until, and the timer it queues below the
  // horizon executes in the same window.
  Scheduler sched;
  std::vector<TimePoint> fired;
  sched.schedule_callback(seconds(1), [&] {
    sched.at_instant_end([&] { sched.schedule_callback(seconds(2), [&] { fired.push_back(sched.now()); }); });
  });
  EXPECT_EQ(sched.run_until(seconds(5)), 2u);
  EXPECT_EQ(fired, (std::vector<TimePoint>{seconds(2)}));
  // next_event_time() runs a due hook too, so a window bound sees its timer.
  sched.at_instant_end([&] { sched.schedule_callback(seconds(7), [] {}); });
  EXPECT_EQ(sched.next_event_time(), seconds(7));
}

TEST(Scheduler, ReservedPositionOrdersAsIfScheduledThen) {
  Scheduler sched;
  std::vector<int> order;
  const QueuePosition reserved = sched.reserve_position();
  sched.schedule_callback(seconds(1), [&] { order.push_back(2); });
  sched.schedule_callback(seconds(1), reserved, [&] { order.push_back(1); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, DeadlockDetected) {
  Scheduler sched;
  auto mutex = std::make_unique<Mutex>(sched);
  sched.spawn([](Mutex& m) -> Task<void> {
    co_await m.lock();
    // never unlocks; second locker blocks forever
    co_return;
  }(*mutex));
  sched.spawn([](Mutex& m) -> Task<void> {
    co_await m.lock();
    m.unlock();
  }(*mutex));
  // First process completes holding the lock, second blocks: queue drains
  // with one live process.
  EXPECT_THROW(sched.run(), DeadlockError);
}

TEST(Scheduler, SpawnEmptyTaskThrows) {
  Scheduler sched;
  Task<void> empty;
  EXPECT_THROW(sched.spawn(std::move(empty)), std::invalid_argument);
}

TEST(Scheduler, NegativeDelayThrows) {
  Scheduler sched;
  EXPECT_THROW(sched.delay(-1), std::invalid_argument);
}

TEST(Mutex, FifoOrderUnderContention) {
  Scheduler sched;
  Mutex mutex(sched);
  std::vector<int> order;
  auto proc = [](Scheduler& s, Mutex& m, std::vector<int>& out, int id) -> Task<void> {
    co_await s.delay(id);  // stagger lock attempts: 1, 2, 3
    co_await m.lock();
    co_await s.delay(seconds(1));  // hold across simulated time
    out.push_back(id);
    m.unlock();
  };
  for (int id = 1; id <= 3; ++id) sched.spawn(proc(sched, mutex, order, id));
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(mutex.locked());
}

TEST(Mutex, CriticalSectionsSerialise) {
  Scheduler sched;
  Mutex mutex(sched);
  TimePoint last_end = 0;
  auto proc = [](Scheduler& s, Mutex& m, TimePoint& end) -> Task<void> {
    co_await m.lock();
    co_await s.delay(seconds(1));
    end = s.now();
    m.unlock();
  };
  for (int i = 0; i < 5; ++i) sched.spawn(proc(sched, mutex, last_end));
  sched.run();
  EXPECT_EQ(last_end, seconds(5));  // 5 x 1 s serialised critical sections
}

TEST(Mutex, UnlockWhileUnlockedThrows) {
  Scheduler sched;
  Mutex mutex(sched);
  EXPECT_THROW(mutex.unlock(), std::logic_error);
}

TEST(SemaphoreTest, BoundsConcurrency) {
  Scheduler sched;
  Semaphore sem(sched, 2);
  int concurrent = 0;
  int peak = 0;
  auto proc = [](Scheduler& s, Semaphore& sm, int& cur, int& pk) -> Task<void> {
    co_await sm.acquire();
    ++cur;
    if (cur > pk) pk = cur;
    co_await s.delay(seconds(1));
    --cur;
    sm.release();
  };
  for (int i = 0; i < 6; ++i) sched.spawn(proc(sched, sem, concurrent, peak));
  sched.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(sched.now(), seconds(3));  // 6 jobs, 2 wide, 1 s each
  EXPECT_EQ(sem.available(), 2u);
}

TEST(SemaphoreTest, HandsPermitsOverInArrivalOrder) {
  Scheduler sched;
  Semaphore sem(sched, 1);
  std::vector<int> order;
  auto proc = [](Scheduler& s, Semaphore& sm, std::vector<int>& out, int id) -> Task<void> {
    co_await s.delay(id);  // arrive at 1, 2, 3, 4: the last three queue behind the first
    co_await sm.acquire();
    out.push_back(id);
    co_await s.delay(seconds(1));
    sm.release();
  };
  for (int id = 1; id <= 4; ++id) sched.spawn(proc(sched, sem, order, id));
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sem.available(), 1u);
}

TEST(BarrierTest, ReleasesAllTogether) {
  Scheduler sched;
  Barrier barrier(sched, 3);
  std::vector<TimePoint> release_times;
  auto proc = [](Scheduler& s, Barrier& b, std::vector<TimePoint>& out, Duration arrive) -> Task<void> {
    co_await s.delay(arrive);
    co_await b.arrive_and_wait();
    out.push_back(s.now());
  };
  sched.spawn(proc(sched, barrier, release_times, seconds(1)));
  sched.spawn(proc(sched, barrier, release_times, seconds(2)));
  sched.spawn(proc(sched, barrier, release_times, seconds(3)));
  sched.run();
  ASSERT_EQ(release_times.size(), 3u);
  for (const TimePoint t : release_times) EXPECT_EQ(t, seconds(3));
}

TEST(BarrierTest, CyclicReuse) {
  Scheduler sched;
  Barrier barrier(sched, 2);
  int rounds_done = 0;
  auto proc = [](Scheduler& s, Barrier& b, int& done, Duration step) -> Task<void> {
    for (int round = 0; round < 3; ++round) {
      co_await s.delay(step);
      co_await b.arrive_and_wait();
    }
    ++done;
  };
  sched.spawn(proc(sched, barrier, rounds_done, seconds(1)));
  sched.spawn(proc(sched, barrier, rounds_done, seconds(2)));
  sched.run();
  EXPECT_EQ(rounds_done, 2);
  EXPECT_EQ(sched.now(), seconds(6));  // slower process paces all 3 rounds
}

TEST(BarrierTest, ReleasesInArrivalOrderEachCycle) {
  Scheduler sched;
  Barrier barrier(sched, 4);
  std::vector<int> order;
  auto proc = [](Scheduler& s, Barrier& b, std::vector<int>& out, int id) -> Task<void> {
    // Cycle 0 arrives in id order, cycle 1 in reverse.
    co_await s.delay(id);
    co_await b.arrive_and_wait();
    out.push_back(id);
    co_await s.delay(10 - id);
    co_await b.arrive_and_wait();
    out.push_back(id);
  };
  for (int id = 1; id <= 4; ++id) sched.spawn(proc(sched, barrier, order, id));
  sched.run();
  // The last arrival passes straight through; the others follow in arrival order.
  EXPECT_EQ(order, (std::vector<int>{4, 1, 2, 3, 1, 4, 3, 2}));
}

TEST(BarrierTest, ZeroPartiesThrows) {
  Scheduler sched;
  EXPECT_THROW(Barrier(sched, 0), std::invalid_argument);
}

TEST(GateTest, BlocksUntilOpened) {
  Scheduler sched;
  Gate gate(sched);
  TimePoint passed_at = -1;
  sched.spawn([](Scheduler& s, Gate& g, TimePoint& out) -> Task<void> {
    co_await g.wait();
    out = s.now();
  }(sched, gate, passed_at));
  sched.schedule_callback(seconds(5), [&] { gate.open(); });
  sched.run();
  EXPECT_EQ(passed_at, seconds(5));
}

TEST(GateTest, OpenGatePassesImmediately) {
  Scheduler sched;
  Gate gate(sched);
  gate.open();
  TimePoint passed_at = -1;
  sched.spawn([](Scheduler& s, Gate& g, TimePoint& out) -> Task<void> {
    co_await g.wait();
    out = s.now();
  }(sched, gate, passed_at));
  sched.run();
  EXPECT_EQ(passed_at, 0);
}

TEST(GateTest, WakesInArrivalOrderAcrossCloseAndReopen) {
  Scheduler sched;
  Gate gate(sched);
  std::vector<std::pair<int, TimePoint>> passed;
  auto proc = [](Scheduler& s, Gate& g, std::vector<std::pair<int, TimePoint>>& out,
                 Duration arrive, int id) -> Task<void> {
    co_await s.delay(arrive);
    co_await g.wait();
    out.emplace_back(id, s.now());
  };
  for (int id = 1; id <= 3; ++id) sched.spawn(proc(sched, gate, passed, id, id));
  for (int id = 4; id <= 6; ++id) sched.spawn(proc(sched, gate, passed, id + 3, id));
  sched.schedule_callback(5, [&] { gate.open(); });
  sched.schedule_callback(6, [&] { gate.close(); });
  sched.schedule_callback(12, [&] { gate.open(); });
  sched.run();
  EXPECT_EQ(passed, (std::vector<std::pair<int, TimePoint>>{
                        {1, 5}, {2, 5}, {3, 5}, {4, 12}, {5, 12}, {6, 12}}));
}

TEST(CountDownLatchTest, WakesInArrivalOrder) {
  Scheduler sched;
  CountDownLatch latch(sched, 1);
  std::vector<int> order;
  auto waiter = [](Scheduler& s, CountDownLatch& l, std::vector<int>& out, int id) -> Task<void> {
    co_await s.delay(id);
    co_await l.wait();
    out.push_back(id);
  };
  for (int id = 1; id <= 4; ++id) sched.spawn(waiter(sched, latch, order, id));
  sched.schedule_callback(10, [&] { latch.count_down(); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(CountDownLatchTest, WaitsForAllSignals) {
  Scheduler sched;
  CountDownLatch latch(sched, 3);
  TimePoint joined_at = -1;
  auto worker = [](Scheduler& s, CountDownLatch& l, Duration d) -> Task<void> {
    co_await s.delay(d);
    l.count_down();
  };
  sched.spawn(worker(sched, latch, seconds(1)));
  sched.spawn(worker(sched, latch, seconds(4)));
  sched.spawn(worker(sched, latch, seconds(2)));
  sched.spawn([](Scheduler& s, CountDownLatch& l, TimePoint& out) -> Task<void> {
    co_await l.wait();
    out = s.now();
  }(sched, latch, joined_at));
  sched.run();
  EXPECT_EQ(joined_at, seconds(4));
}

// One round per loop: every contender waits at the barrier, at the closed
// gate, for one of the semaphore's two permits and for the mutex.
Task<void> contend(Scheduler& s, Mutex& m, Semaphore& sem, Barrier& b, Gate& g,
                   CountDownLatch& done, int rounds) {
  for (int round = 0; round < rounds; ++round) {
    co_await b.arrive_and_wait();
    co_await g.wait();
    co_await sem.acquire();
    co_await s.delay(1);
    sem.release();
    co_await m.lock();
    co_await s.delay(1);
    m.unlock();
  }
  done.count_down();
}

Task<void> gatekeeper(Scheduler& s, Barrier& b, Gate& g, int rounds) {
  for (int round = 0; round < rounds; ++round) {
    g.close();
    co_await b.arrive_and_wait();
    co_await s.delay(5);
    g.open();
  }
}

TEST(SyncTest, WaitingAllocatesNothing) {
  constexpr int kContenders = 8;
  constexpr int kRounds = 20;
  Scheduler sched;
  const std::uint64_t before_construction = operator_new_calls.load();
  Mutex mutex(sched);
  Semaphore sem(sched, 2);
  Barrier barrier(sched, kContenders + 1);
  Gate gate(sched);
  CountDownLatch done(sched, kContenders);
  const std::uint64_t construction = operator_new_calls.load() - before_construction;

  int joined = 0;
  auto join = [](CountDownLatch& l, int& out) -> Task<void> {
    co_await l.wait();
    ++out;
  };
  for (int i = 0; i < kContenders; ++i) {
    sched.spawn(contend(sched, mutex, sem, barrier, gate, done, kRounds));
  }
  sched.spawn(gatekeeper(sched, barrier, gate, kRounds));
  sched.spawn(join(done, joined));
  sched.spawn(join(done, joined));
  sched.run_until(50);  // warm-up: the first rounds size the event queue
  const std::uint64_t before_loop = operator_new_calls.load();
  const TimePoint warmed_up_at = sched.now();
  sched.run();
  const std::uint64_t loop = operator_new_calls.load() - before_loop;

  EXPECT_EQ(construction, 0u);
  EXPECT_EQ(loop, 0u);
  EXPECT_GT(warmed_up_at, 0);
  EXPECT_GT(sched.now(), warmed_up_at + 10 * (5 + kContenders));  // most rounds ran after it
  EXPECT_EQ(joined, 2);
}

// Determinism property: identical programs produce identical event traces.
class SchedulerDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerDeterminism, RepeatedRunsIdentical) {
  const int n_procs = GetParam();
  auto run_once = [n_procs]() {
    Scheduler sched;
    auto mutex = std::make_shared<Mutex>(sched);
    std::vector<std::pair<int, TimePoint>> trace;
    auto proc = [](Scheduler& s, std::shared_ptr<Mutex> m, std::vector<std::pair<int, TimePoint>>& out,
                   int id) -> Task<void> {
      for (int i = 0; i < 3; ++i) {
        co_await s.delay(microseconds(static_cast<double>((id * 7 + i * 13) % 20 + 1)));
        co_await m->lock();
        co_await s.delay(microseconds(5));
        out.emplace_back(id, s.now());
        m->unlock();
      }
    };
    for (int id = 0; id < n_procs; ++id) sched.spawn(proc(sched, mutex, trace, id));
    sched.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(VariousWidths, SchedulerDeterminism, ::testing::Values(1, 4, 16, 64));

}  // namespace
}  // namespace nws::sim
