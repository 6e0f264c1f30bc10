// Simulated-time representation.
//
// Simulated time is an integer count of nanoseconds so that event ordering is
// exact and runs are bit-reproducible; doubles appear only at the edges
// (durations computed from bandwidths, metric output in seconds).
#pragma once

#include <cmath>
#include <cstdint>

namespace nws::sim {

/// Nanoseconds since simulation start.
using TimePoint = std::int64_t;
/// Nanoseconds.
using Duration = std::int64_t;

inline constexpr Duration kNanosecond = 1;
inline constexpr Duration kMicrosecond = 1000;
inline constexpr Duration kMillisecond = 1000 * 1000;
inline constexpr Duration kSecond = 1000 * 1000 * 1000;

inline constexpr Duration nanoseconds(std::int64_t n) { return n; }
inline constexpr Duration microseconds(double us) { return static_cast<Duration>(us * 1e3 + 0.5); }
inline constexpr Duration milliseconds(double ms) { return static_cast<Duration>(ms * 1e6 + 0.5); }
inline constexpr Duration seconds(double s) { return static_cast<Duration>(s * 1e9 + 0.5); }

inline constexpr double to_seconds(Duration d) { return static_cast<double>(d) * 1e-9; }

/// Duration to move `bytes` at `bytes_per_second`, rounded up to a whole
/// nanosecond so a transfer never completes in zero simulated time.
inline Duration transfer_time(double bytes, double bytes_per_second) {
  if (bytes <= 0.0) return 0;
  const double ns = bytes / bytes_per_second * 1e9;
  const double ceiled = std::ceil(ns);
  return ceiled < 1.0 ? 1 : static_cast<Duration>(ceiled);
}

}  // namespace nws::sim
