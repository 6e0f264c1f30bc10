// Byte-size and bandwidth unit helpers.
//
// The paper reports object sizes in MiB (binary) and bandwidths in GiB/s.
// All byte counts in this codebase are std::uint64_t counts of bytes; all
// bandwidths are double bytes-per-second.  These helpers keep unit conversion
// explicit at call sites.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace nws {

using Bytes = std::uint64_t;

inline constexpr Bytes operator""_KiB(unsigned long long v) { return Bytes{v} << 10; }
inline constexpr Bytes operator""_MiB(unsigned long long v) { return Bytes{v} << 20; }
inline constexpr Bytes operator""_GiB(unsigned long long v) { return Bytes{v} << 30; }
inline constexpr Bytes operator""_TiB(unsigned long long v) { return Bytes{v} << 40; }

inline constexpr double kKiB = 1024.0;
inline constexpr double kMiB = 1024.0 * 1024.0;
inline constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
inline constexpr double kTiB = kGiB * 1024.0;

/// Bandwidth in bytes per second.
using Bandwidth = double;

/// Construct a bandwidth from a GiB/s figure (the unit used throughout the
/// paper's tables and figures).
inline constexpr Bandwidth gib_per_sec(double v) { return v * kGiB; }
inline constexpr double to_gib_per_sec(Bandwidth bw) { return bw / kGiB; }

/// Bytes each of `width` members holds of [offset, offset+len) when the
/// byte space is cut into `chunk`-byte chunks dealt round-robin (chunk i to
/// member i % width): DAOS array striping and Lustre file striping alike.
std::vector<Bytes> stripe_split(Bytes offset, Bytes len, Bytes chunk, std::size_t width);

/// Human-readable byte count, e.g. "5 MiB", "1.5 GiB".
std::string format_bytes(Bytes b);

/// Human-readable bandwidth, e.g. "2.50 GiB/s".
std::string format_bandwidth(Bandwidth bw);

}  // namespace nws
