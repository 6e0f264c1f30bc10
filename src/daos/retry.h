// Exponential-backoff retry over simulated DAOS operations.
//
// fdb::FieldIo introduced the policy (fault injection: outage windows,
// dropped RPCs, transient errors); the catalogue, the pgen serving tier and
// the dfs namespace all need the identical semantics, so the driver lives
// here at the daos layer: Retrier re-issues an operation factory under a
// RetryPolicy, sleeping a jittered exponential backoff between attempts and
// accounting every retry against the client (ClientStats::op_retries) and an
// optional caller counter.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/status.h"
#include "daos/client.h"
#include "obs/trace.h"
#include "sim/task.h"
#include "sim/time.h"

namespace nws::daos {

/// Exponential-backoff retry for transient DAOS failures (fault injection:
/// outage windows, dropped RPCs, transient I/O errors).  Semantic statuses —
/// not_found, already_exists — are never retried; they drive Algorithm 1/2
/// control flow.
struct RetryPolicy {
  std::size_t max_attempts = 10;
  sim::Duration initial_backoff = sim::microseconds(500.0);
  double multiplier = 2.0;
  sim::Duration max_backoff = sim::milliseconds(20.0);
  /// Backoff is scaled by uniform([1 - jitter, 1 + jitter)) to de-correlate
  /// concurrent retriers.
  double jitter = 0.5;

  [[nodiscard]] static bool retriable(const Status& s) {
    return s.code() == Errc::unavailable || s.code() == Errc::io_error || s.code() == Errc::timeout;
  }
};

/// Drives a RetryPolicy over one client's operations.  `rng_seed` must be
/// derived from (cluster seed, caller identity) without drawing from the
/// cluster's own streams, so enabling retries never perturbs unrelated
/// jitter; `retry_counter` (optional) receives one increment per backoff,
/// alongside the client's op_retries accounting.
class Retrier {
 public:
  Retrier(daos::Client& client, RetryPolicy policy, std::uint64_t rng_seed,
          std::uint64_t* retry_counter = nullptr)
      : client_(client), policy_(policy), rng_(rng_seed), retries_(retry_counter) {}

  [[nodiscard]] const RetryPolicy& policy() const { return policy_; }

  /// Runs `make()` (a factory producing a fresh Task<Status> per attempt)
  /// under the retry policy.
  ///
  /// LIFETIME: sim::Task coroutines are lazy, so any temporary the lambda
  /// passes to a *reference* parameter dies when `make()` returns — before
  /// the task first runs.  Hoist such arguments into named locals in the
  /// calling coroutine (by-value parameters are copied into the frame at
  /// construction and are safe).
  template <typename MakeTask>
  sim::Task<Status> run(MakeTask make) {
    for (std::size_t attempt = 0;; ++attempt) {
      Status st = co_await make();
      if (st.is_ok() || !RetryPolicy::retriable(st) || attempt + 1 >= policy_.max_attempts) {
        co_return st;
      }
      co_await backoff(attempt);
    }
  }

  /// As run(), for operations returning Result<T>.
  template <typename T, typename MakeTask>
  sim::Task<Result<T>> run_result(MakeTask make) {
    for (std::size_t attempt = 0;; ++attempt) {
      Result<T> r = co_await make();
      if (r.is_ok() || !RetryPolicy::retriable(r.status()) ||
          attempt + 1 >= policy_.max_attempts) {
        co_return r;
      }
      co_await backoff(attempt);
    }
  }

  /// Sleeps the exponential backoff for retry number `attempt` (0-based) and
  /// accounts the retry.  `max_backoff` bounds the *observable* sleep: the
  /// cap is applied after jitter, so no sleep ever exceeds the policy cap
  /// (capping before jitter let sleeps overshoot by up to 1 + jitter).
  sim::Task<void> backoff(std::size_t attempt) {
    obs::Span span("retry_backoff", "retry", client_.trace_actor());
    double backoff = static_cast<double>(policy_.initial_backoff);
    for (std::size_t i = 0; i < attempt; ++i) backoff *= policy_.multiplier;
    backoff *= rng_.uniform(1.0 - policy_.jitter, 1.0 + policy_.jitter);
    const auto cap = static_cast<double>(policy_.max_backoff);
    if (backoff > cap) backoff = cap;
    if (retries_ != nullptr) ++*retries_;
    client_.note_retry();
    co_await client_.cluster().scheduler().delay(static_cast<sim::Duration>(backoff));
  }

 private:
  daos::Client& client_;
  RetryPolicy policy_;
  Rng rng_;  // backoff jitter stream (independent of the cluster's streams)
  std::uint64_t* retries_;
};

}  // namespace nws::daos
