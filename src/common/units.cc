#include "common/units.h"

#include <algorithm>
#include <array>
#include <cstdio>

namespace nws {

std::vector<Bytes> stripe_split(Bytes offset, Bytes len, Bytes chunk, std::size_t width) {
  std::vector<Bytes> per_member(width, 0);
  Bytes pos = offset;
  Bytes remaining = len;
  while (remaining > 0) {
    const Bytes chunk_index = pos / chunk;
    const Bytes within = pos % chunk;
    const Bytes take = std::min(remaining, chunk - within);
    per_member[static_cast<std::size_t>(chunk_index % width)] += take;
    pos += take;
    remaining -= take;
  }
  return per_member;
}

std::string format_bytes(Bytes b) {
  static constexpr std::array<const char*, 5> suffix{"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(b);
  std::size_t i = 0;
  while (v >= 1024.0 && i + 1 < suffix.size()) {
    v /= 1024.0;
    ++i;
  }
  char buf[64];
  if (v == static_cast<double>(static_cast<std::uint64_t>(v))) {
    std::snprintf(buf, sizeof buf, "%llu %s", static_cast<unsigned long long>(v), suffix[i]);
  } else {
    std::snprintf(buf, sizeof buf, "%.2f %s", v, suffix[i]);
  }
  return buf;
}

std::string format_bandwidth(Bandwidth bw) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f GiB/s", to_gib_per_sec(bw));
  return buf;
}

}  // namespace nws
