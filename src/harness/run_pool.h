// Work-stealing parallel run engine for seeded experiment jobs.
//
// The experiment methodology (paper Sections 6.2-6.3) is a campaign of
// independent repetitions: every repetition builds a fresh scheduler and
// cluster from an explicit seed, shares no mutable state with any other
// repetition, and is a pure function of that seed.  Such jobs are
// embarrassingly parallel, so the pool simply distributes job *indices*
// across a fixed set of worker threads: each worker owns a deque of
// indices, drains its own from the front, and steals from the back of the
// busiest victim when empty.  Stealing only moves *which thread* runs a
// job, never its inputs or the order results are folded in, so a sweep is
// bit-identical at any thread count — parallel_map() returns results
// ordered by job index, and callers fold serially in that order.
//
// jobs == 1 never creates a thread: the calling thread runs every job in
// index order (the strictly-serial replay mode, NWS_CHAOS_SEED).
//
// Exceptions: a throwing job does not abort the sweep; all jobs run, then
// the exception of the lowest-indexed failing job is rethrown on the
// caller's thread (again identical at any thread count).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace nws::bench {

class RunPool {
 public:
  /// Spawns `threads - 1` workers (the calling thread of run() is the
  /// remaining one).  `threads` < 1 is treated as 1.
  explicit RunPool(std::size_t threads);
  RunPool(const RunPool&) = delete;
  RunPool& operator=(const RunPool&) = delete;
  ~RunPool();

  [[nodiscard]] std::size_t threads() const { return workers_.size() + 1; }

  /// Runs body(0) ... body(n_jobs - 1), each exactly once, distributed over
  /// the pool; blocks until all jobs finished.  The first exception (by job
  /// index) is rethrown after the whole sweep drained.
  void run(std::size_t n_jobs, const std::function<void(std::size_t)>& body);

 private:
  /// Jobs popped per queue lock: short repetitions (milliseconds) amortise
  /// dispatch overhead over a batch instead of paying mutex + condvar
  /// bookkeeping per job, which once made a parallel sweep slower than a
  /// serial one (RunPoolSpeedTest.ParallelSweepNotSlowerThanSerial).
  static constexpr std::size_t kBatch = 8;

  struct WorkerQueue {
    std::deque<std::size_t> jobs;
    std::mutex mutex;
  };

  void worker_loop(std::size_t self);
  /// Pops up to kBatch job indices for worker `self` (own queue front, else
  /// steal from the back of the longest other queue); returns false when
  /// the sweep is drained.
  bool next_jobs(std::size_t self, std::vector<std::size_t>& batch);
  void record_failure(std::size_t job);
  void run_batch(const std::vector<std::size_t>& batch);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;  // one per participant
  std::vector<std::thread> workers_;

  // Sweep state, valid while run() is active.
  std::mutex sweep_mutex_;
  std::condition_variable sweep_start_;
  std::condition_variable sweep_done_;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t generation_ = 0;     // bumped per run() to wake workers
  std::size_t outstanding_ = 0;    // jobs not yet finished
  bool shutdown_ = false;
  std::size_t first_error_job_ = 0;
  std::exception_ptr first_error_;
};

/// Process-wide default parallelism for repeat()/best_over_ppn() and the
/// bench binaries' --jobs flag.  Initially 1 (serial); resolve_jobs() /
/// set_default_jobs() raise it.  0 is normalised to hardware_concurrency().
std::size_t default_jobs();
void set_default_jobs(std::size_t jobs);

/// `jobs` == 0 -> hardware_concurrency() (minimum 1).
std::size_t normalize_jobs(std::size_t jobs);

/// std::thread::hardware_concurrency(), minimum 1 — the real core count.
std::size_t hardware_jobs();

/// Applies `fn` to every index in [0, n) on a transient RunPool and returns
/// the results ordered by index — the deterministic fan-out primitive.  With
/// jobs <= 1 everything runs inline on the calling thread.  The effective
/// worker count is capped at hardware_jobs(): CPU-bound simulation jobs only
/// lose to oversubscription (results are index-ordered either way, so the
/// cap cannot change them).
template <typename Fn>
auto parallel_map(std::size_t n, std::size_t jobs, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using R = decltype(fn(std::size_t{0}));
  std::vector<R> results(n);
  jobs = std::min(normalize_jobs(jobs), hardware_jobs());
  if (jobs <= 1 || n <= 1) {
    // Same exception contract as the pool: every job runs, then the first
    // failure (by index) is rethrown.
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        results[i] = fn(i);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return results;
  }
  RunPool pool(jobs < n ? jobs : n);
  pool.run(n, [&](std::size_t i) { results[i] = fn(i); });
  return results;
}

}  // namespace nws::bench
