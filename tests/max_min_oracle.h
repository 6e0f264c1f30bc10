// Reference max-min solver for the flow-level fabric model.
//
// This is the per-flow progressive filling FlowScheduler::recompute_rates ran
// before it solved over flow classes, kept verbatim as a test oracle: every
// round scans every active link and every flow.  The production solver must
// reproduce its rates bit for bit (tests/net_test.cc, FlowOracleSweep), so
// the arithmetic here must not be "improved": the delta minimum (links first,
// then caps), the level accumulation, the residual update on every active
// link and the freeze predicate are the contract.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

#include "net/flow.h"
#include "net/link.h"

namespace nws::net {

/// Max-min rates of `flows` (in order) over the scheduler's links, with each
/// link's effective capacity taken at the number of flow path entries on it.
inline std::vector<double> reference_max_min_rates(const FlowScheduler& fs,
                                                   const std::vector<FlowScheduler::ActiveFlow>& flows) {
  constexpr double kRateEpsilon = 1e-6;  // as in src/net/flow.cc
  const std::size_t n_flows = flows.size();
  std::vector<double> rates(n_flows, 0.0);
  if (n_flows == 0) return rates;

  std::vector<std::size_t> link_flow_count(fs.link_count(), 0);
  std::vector<LinkId> active_links;
  for (const auto& f : flows) {
    for (const LinkId id : f.path) {
      if (link_flow_count[id]++ == 0) active_links.push_back(id);
    }
  }
  std::vector<double> residual(fs.link_count(), 0.0);
  std::vector<std::size_t> unfrozen_on_link(fs.link_count(), 0);
  for (const LinkId l : active_links) {
    residual[l] = fs.link(l).effective_capacity(link_flow_count[l]);
    unfrozen_on_link[l] = link_flow_count[l];
  }

  std::vector<char> frozen(n_flows, 0);
  std::size_t n_frozen = 0;
  double level = 0.0;
  while (n_frozen < n_flows) {
    double delta = std::numeric_limits<double>::infinity();
    for (const LinkId l : active_links) {
      if (unfrozen_on_link[l] > 0) {
        delta = std::min(delta, residual[l] / static_cast<double>(unfrozen_on_link[l]));
      }
    }
    for (std::size_t i = 0; i < n_flows; ++i) {
      if (!frozen[i]) delta = std::min(delta, flows[i].cap - level);
    }
    if (!std::isfinite(delta)) throw std::logic_error("max-min fill diverged (uncapped flow on no links?)");
    if (delta < 0.0) delta = 0.0;

    level += delta;
    for (const LinkId l : active_links) {
      residual[l] -= delta * static_cast<double>(unfrozen_on_link[l]);
    }

    bool any_frozen_this_round = false;
    for (std::size_t i = 0; i < n_flows; ++i) {
      if (frozen[i]) continue;
      bool saturated = flows[i].cap - level <= kRateEpsilon;
      if (!saturated) {
        for (const LinkId id : flows[i].path) {
          if (residual[id] <= kRateEpsilon * fs.link(id).raw_capacity) {
            saturated = true;
            break;
          }
        }
      }
      if (saturated) {
        frozen[i] = 1;
        ++n_frozen;
        any_frozen_this_round = true;
        rates[i] = level;
        for (const LinkId id : flows[i].path) --unfrozen_on_link[id];
      }
    }
    if (!any_frozen_this_round) {
      for (std::size_t i = 0; i < n_flows; ++i) {
        if (!frozen[i]) {
          frozen[i] = 1;
          ++n_frozen;
          rates[i] = level;
        }
      }
    }
  }
  return rates;
}

}  // namespace nws::net
