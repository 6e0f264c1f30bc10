// Network / service links for the flow-level fabric model.
//
// A Link is any shared, rate-limited resource a transfer passes through: a
// NIC's transmit or receive side, the cross-socket UPI interconnect, a DAOS
// target's service capacity or an SCM region's media bandwidth.  The flow
// scheduler divides each link's effective capacity among the flows crossing
// it with max-min fairness.
//
// Some links (NICs under the OFI TCP provider) do not deliver their raw
// capacity to a single stream: aggregate throughput depends on how many
// concurrent streams are multiplexed onto the link (paper Table 2).  Such
// links carry a piecewise-linear efficiency curve: effective capacity =
// curve(number of active flows), clamped to raw capacity.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace nws::net {

using LinkId = std::uint32_t;
inline constexpr LinkId kInvalidLink = 0xffffffffu;

/// Piecewise-linear map from concurrent stream count to aggregate capacity
/// (bytes/s).  Points must be sorted by stream count; evaluation clamps to
/// the first/last point outside the covered range.
class EfficiencyCurve {
 public:
  EfficiencyCurve() = default;
  explicit EfficiencyCurve(std::vector<std::pair<double, double>> points);

  [[nodiscard]] bool empty() const { return points_.empty(); }
  [[nodiscard]] double evaluate(double streams) const;

  /// Returns a copy with every capacity multiplied by `factor`.
  [[nodiscard]] EfficiencyCurve scaled(double factor) const;

 private:
  std::vector<std::pair<double, double>> points_;
};

struct Link {
  std::string name;
  double raw_capacity = 0.0;  // bytes/s
  EfficiencyCurve efficiency;  // empty: effective capacity == raw_capacity
  // Runtime degradation multiplier (fault injection: slowdown windows,
  // outages).  1.0 = healthy, 0.0 = complete outage.  Applied on top of the
  // efficiency curve; changed only through FlowScheduler::set_capacity_factor
  // so active flow rates are recomputed.
  double capacity_factor = 1.0;

  [[nodiscard]] double effective_capacity(std::size_t active_flows) const {
    if (efficiency.empty() || active_flows == 0) return raw_capacity * capacity_factor;
    const double c = efficiency.evaluate(static_cast<double>(active_flows));
    return (c < raw_capacity ? c : raw_capacity) * capacity_factor;
  }
};

}  // namespace nws::net
