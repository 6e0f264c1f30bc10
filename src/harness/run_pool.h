// Parallel fan-out for seeded experiment jobs.
//
// The experiment methodology (paper Sections 6.2-6.3) is a campaign of
// independent repetitions: every repetition builds a fresh scheduler and
// cluster from an explicit seed, shares no mutable state with any other
// repetition, and is a pure function of that seed.  Such jobs are
// embarrassingly parallel, so a sweep only distributes job *indices*: the
// calling thread and its helpers claim the next index from one shared
// counter until none is left.  Claiming only decides *which thread* runs a
// job, never its inputs or the order results are folded in, so a sweep is
// bit-identical at any thread count — parallel_map() returns results
// ordered by job index, and callers fold serially in that order.
//
// One thread never creates a helper: the calling thread runs every job in
// index order (the strictly-serial replay mode, NWS_CHAOS_SEED).
//
// Exceptions: a throwing job does not abort the sweep; all jobs run, then
// the exception of the lowest-indexed failing job is rethrown on the
// caller's thread (again identical at any thread count).
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

namespace nws::bench {

/// Process-wide default parallelism for repeat()/best_over_ppn() and the
/// bench binaries' --jobs flag.  Initially 1 (serial); resolve_jobs() /
/// set_default_jobs() raise it.  0 is normalised to hardware_concurrency().
std::size_t default_jobs();
void set_default_jobs(std::size_t jobs);

/// `jobs` == 0 -> hardware_concurrency() (minimum 1).
std::size_t normalize_jobs(std::size_t jobs);

/// std::thread::hardware_concurrency(), minimum 1 — the real core count.
std::size_t hardware_jobs();

/// Runs body(0) ... body(n - 1), each exactly once, on the calling thread
/// plus `threads - 1` helper threads, each claiming the next unclaimed index
/// whenever it is free; returns after every job finished and the helpers
/// joined.  `threads` <= 1 runs every job inline in index order.
void run_indexed(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)>& body);

/// Applies `fn` to every index in [0, n) and returns the results ordered by
/// index — the deterministic fan-out primitive.  With jobs <= 1 everything
/// runs inline on the calling thread, in index order.  The effective thread
/// count is capped at hardware_jobs(): CPU-bound simulation jobs only lose
/// to oversubscription (results are index-ordered either way, so the cap
/// cannot change them).
template <typename Fn>
auto parallel_map(std::size_t n, std::size_t jobs, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  std::vector<decltype(fn(std::size_t{0}))> results(n);
  run_indexed(n, std::min({normalize_jobs(jobs), hardware_jobs(), n}),
              [&](std::size_t i) { results[i] = fn(i); });
  return results;
}

}  // namespace nws::bench
