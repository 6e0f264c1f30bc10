#include "harness/run_pool.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

namespace nws::bench {

std::size_t hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? n : 1;
}

namespace {

std::atomic<std::size_t>& default_jobs_slot() {
  // Initialised once from NWS_JOBS (0 -> hardware_concurrency); benches
  // override via set_default_jobs(resolve_jobs(cli)).
  static std::atomic<std::size_t> slot = [] {
    const char* env = std::getenv("NWS_JOBS");
    if (env != nullptr && *env != '\0') {
      return normalize_jobs(static_cast<std::size_t>(std::strtoull(env, nullptr, 10)));
    }
    return std::size_t{1};
  }();
  return slot;
}

}  // namespace

std::size_t normalize_jobs(std::size_t jobs) { return jobs == 0 ? hardware_jobs() : jobs; }

std::size_t default_jobs() { return default_jobs_slot().load(std::memory_order_relaxed); }

void set_default_jobs(std::size_t jobs) {
  default_jobs_slot().store(normalize_jobs(jobs), std::memory_order_relaxed);
}

void run_indexed(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)>& body) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::size_t error_job = n;  // guarded by error_mutex, like error
  std::exception_ptr error;
  const auto claim_until_drained = [&] {
    for (std::size_t job = next++; job < n; job = next++) {
      try {
        body(job);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (job < error_job) {
          error_job = job;
          error = std::current_exception();
        }
      }
    }
  };
  {
    // jthreads join on scope exit, also when spawning a later one throws.
    std::vector<std::jthread> helpers;
    for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(claim_until_drained);
    claim_until_drained();
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace nws::bench
