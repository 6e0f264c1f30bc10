#include "traced.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace nwsbench {

namespace {

using nws::obs::TraceRecorder;

// Child-span families, in attribution priority order.
enum Family : int { kRetry, kOpen, kIndex, kData, kFamilies };
constexpr std::array<const char*, kFamilies> kShareNames = {
    "fdb.retry_share", "fdb.open_share", "fdb.index_share", "fdb.data_share"};

int family_of(std::string_view name) {
  if (name == "retry_backoff") return kRetry;
  if (name == "pool_connect" || name == "cont_create" || name == "cont_open" ||
      name == "kv_open" || name == "array_open" || name == "array_create") {
    return kOpen;
  }
  if (name.starts_with("kv_")) return kIndex;
  if (name.starts_with("array_")) return kData;
  return -1;
}

bool is_op_span(std::string_view name) { return name == "io" || name == "pgen.read"; }

// Span durations reported as percentiles or totals.
constexpr std::array<const char*, 10> kTimedSpans = {
    "flow",       "kv_put",     "kv_get",    "array_write", "array_read",
    "epoch.commit", "retry_backoff", "dfs.create", "dfs.rename", "dfs.write"};

struct Child {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  int family = 0;
};

struct ActorSpans {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ops;
  std::vector<Child> children;
};

/// Adds to `covered` the part of [start, end) each family owns among the
/// children contained in it (`children` sorted by start).
void attribute(std::uint64_t start, std::uint64_t end, const std::vector<Child>& children,
               std::array<std::uint64_t, kFamilies>& covered) {
  std::vector<std::pair<std::uint64_t, int>> edges;  // (time, +/-(family+1))
  auto it = std::lower_bound(children.begin(), children.end(), start,
                             [](const Child& c, std::uint64_t t) { return c.start < t; });
  for (; it != children.end() && it->start < end; ++it) {
    if (it->end > end || it->end <= it->start) continue;  // not contained, or empty
    edges.emplace_back(it->start, it->family + 1);
    edges.emplace_back(it->end, -(it->family + 1));
  }
  std::sort(edges.begin(), edges.end());
  std::array<int, kFamilies> active{};
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const int f = edges[i].second;
    active[static_cast<std::size_t>(std::abs(f) - 1)] += f > 0 ? 1 : -1;
    if (i + 1 == edges.size()) break;
    const std::uint64_t span = edges[i + 1].first - edges[i].first;
    for (int fam = 0; fam < kFamilies; ++fam) {
      if (active[static_cast<std::size_t>(fam)] > 0) {
        covered[static_cast<std::size_t>(fam)] += span;
        break;
      }
    }
  }
}

}  // namespace

std::map<std::string, double> span_metrics(const SpanList& spans, bool shares) {
  std::map<std::string, nws::Summary> durations;  // seconds, by span name
  std::map<std::uint64_t, ActorSpans> actors;
  for (const TraceRecorder::SpanRecord& s : spans) {
    if (s.open || s.end_ns < s.start_ns) continue;
    const std::string_view name(s.name);
    if (std::find(kTimedSpans.begin(), kTimedSpans.end(), name) != kTimedSpans.end()) {
      durations[s.name].add(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
    if (!shares || s.node == nws::obs::kNetworkNode) continue;
    const std::uint64_t actor = (std::uint64_t{s.node} << 32) | s.proc;
    if (is_op_span(name)) {
      actors[actor].ops.emplace_back(s.start_ns, s.end_ns);
    } else if (const int f = family_of(name); f >= 0) {
      actors[actor].children.push_back({s.start_ns, s.end_ns, f});
    }
  }

  std::map<std::string, double> out;
  const auto pct_ms = [&durations](const char* span, double p) {
    const auto it = durations.find(span);
    return it == durations.end() ? 0.0 : it->second.percentile(p) * 1e3;
  };
  out["net.flow_ms.p50"] = pct_ms("flow", 50);
  out["net.flow_ms.p99"] = pct_ms("flow", 99);
  for (const char* op : {"kv_put", "kv_get", "array_write", "array_read"}) {
    out[std::string("daos.") + op + "_ms.p50"] = pct_ms(op, 50);
    out[std::string("daos.") + op + "_ms.p99"] = pct_ms(op, 99);
  }
  out["epoch.commit_ms.p50"] = pct_ms("epoch.commit", 50);
  for (const char* op : {"create", "rename", "write"}) {
    out[std::string("dfs.") + op + "_ms.p50"] = pct_ms((std::string("dfs.") + op).c_str(), 50);
  }
  const auto backoff = durations.find("retry_backoff");
  out["fault.retry_backoff_s"] = backoff == durations.end() ? 0.0 : backoff->second.sum();

  if (!shares) return out;
  std::array<std::uint64_t, kFamilies> covered{};
  std::uint64_t total = 0;
  for (auto& [actor, a] : actors) {
    std::sort(a.children.begin(), a.children.end(),
              [](const Child& x, const Child& y) { return x.start < y.start; });
    for (const auto& [start, end] : a.ops) {
      total += end - start;
      attribute(start, end, a.children, covered);
    }
  }
  if (total == 0) return out;
  std::uint64_t uncovered = total;
  for (int f = 0; f < kFamilies; ++f) {
    const std::uint64_t ns = covered[static_cast<std::size_t>(f)];
    uncovered -= ns;
    out[kShareNames[static_cast<std::size_t>(f)]] =
        static_cast<double>(ns) / static_cast<double>(total);
  }
  out["fdb.uncovered_share"] = static_cast<double>(uncovered) / static_cast<double>(total);
  return out;
}

}  // namespace nwsbench
