// Exponential-backoff retry over simulated DAOS operations.
//
// fdb::FieldIo introduced the policy (fault injection: outage windows,
// dropped RPCs, transient errors); the catalogue, the pgen serving tier and
// the dfs namespace all need the identical semantics, so the driver lives
// here at the daos layer: Retrier::call re-issues one Client operation under
// the one retry policy below, sleeping a jittered exponential backoff
// between attempts and accounting every retry against the client
// (ClientStats::op_retries) and an optional caller counter.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/status.h"
#include "daos/client.h"
#include "obs/trace.h"
#include "sim/task.h"
#include "sim/time.h"

namespace nws::daos {

// The retry policy for transient DAOS failures (fault injection: outage
// windows, dropped RPCs, transient I/O errors), shared by every caller.
// Retry n (0-based) sleeps kRetryInitialBackoff * kRetryMultiplier^n, scaled
// by uniform([1 - kRetryJitter, 1 + kRetryJitter)) to de-correlate
// concurrent retriers and then capped at kRetryMaxBackoff.
inline constexpr std::size_t kRetryMaxAttempts = 10;
inline constexpr sim::Duration kRetryInitialBackoff = sim::microseconds(500.0);
inline constexpr double kRetryMultiplier = 2.0;
inline constexpr sim::Duration kRetryMaxBackoff = sim::milliseconds(20.0);
inline constexpr double kRetryJitter = 0.5;

/// Drives the retry policy over one client's operations.  `rng_seed` must be
/// derived from (cluster seed, caller identity) without drawing from the
/// cluster's own streams, so enabling retries never perturbs unrelated
/// jitter; `retry_counter` (optional) receives one increment per backoff,
/// alongside the client's op_retries accounting.
class Retrier {
 public:
  Retrier(daos::Client& client, std::uint64_t rng_seed, std::uint64_t* retry_counter = nullptr)
      : client_(client), rng_(rng_seed), retries_(retry_counter) {}

  /// Runs `(client.*op)(args...)` under the retry policy, re-issuing the
  /// same operation with the same arguments after each retriable failure:
  /// `co_await retrier.call(&Client::kv_get, kv, key)`.  `op` returns
  /// Task<Status> or Task<Result<T>>.  The arguments are held by reference
  /// and passed to every attempt as lvalues, so, as with any coroutine call,
  /// co_await the call in the expression that makes it.
  template <typename R, typename... Params, typename... Args>
  sim::Task<R> call(sim::Task<R> (Client::*op)(Params...), Args&&... args) {
    for (std::size_t attempt = 0;; ++attempt) {
      R r = co_await (client_.*op)(args...);
      const Status& st = status_of(r);
      if (st.is_ok() || !retriable(st) || attempt + 1 >= kRetryMaxAttempts) co_return r;
      co_await backoff(attempt);
    }
  }

  /// Sleeps the exponential backoff for retry number `attempt` (0-based) and
  /// accounts the retry.  kRetryMaxBackoff bounds the *observable* sleep:
  /// the cap is applied after jitter, so no sleep ever exceeds it (capping
  /// before jitter let sleeps overshoot by up to 1 + jitter).
  sim::Task<void> backoff(std::size_t attempt) {
    obs::Span span("retry_backoff", "retry", client_.trace_actor());
    double backoff = static_cast<double>(kRetryInitialBackoff);
    for (std::size_t i = 0; i < attempt; ++i) backoff *= kRetryMultiplier;
    backoff *= rng_.uniform(1.0 - kRetryJitter, 1.0 + kRetryJitter);
    const auto cap = static_cast<double>(kRetryMaxBackoff);
    if (backoff > cap) backoff = cap;
    if (retries_ != nullptr) ++*retries_;
    client_.note_retry();
    co_await client_.cluster().scheduler().delay(static_cast<sim::Duration>(backoff));
  }

 private:
  static const Status& status_of(const Status& s) { return s; }
  template <typename T>
  static const Status& status_of(const Result<T>& r) { return r.status(); }

  /// Semantic statuses — not_found, already_exists — are never retried; they
  /// drive Algorithm 1/2 control flow.
  [[nodiscard]] static bool retriable(const Status& s) {
    return s.code() == Errc::unavailable || s.code() == Errc::io_error || s.code() == Errc::timeout;
  }

  daos::Client& client_;
  Rng rng_;  // backoff jitter stream (independent of the cluster's streams)
  std::uint64_t* retries_;
};

}  // namespace nws::daos
