// Cluster network topology: dual-socket nodes on a dual-rail fabric.
//
// NEXTGenIO (paper 6.1): dual-socket nodes, one OmniPath adapter per socket
// at 12.5 GiB/s, and a *dual-rail* fabric — two separate switches
// interconnect first-socket adapters and second-socket adapters respectively.
// Traffic therefore enters a remote node on the rail of the sending socket
// and must cross the node-internal UPI interconnect to reach the other
// socket.
//
// The switches themselves are modelled as non-blocking (no shared link); the
// shared resources are the per-socket NIC tx/rx sides and the per-node UPI.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "common/units.h"
#include "net/flow.h"
#include "net/provider.h"

namespace nws::net {

/// Sockets per node (NEXTGenIO: dual-socket), one NIC and rail each.
inline constexpr std::size_t kSocketsPerNode = 2;

struct TopologyConfig {
  std::size_t nodes = 0;
  ProviderProfile provider;  // sets NIC efficiency curves + latency
};

/// Address of a network endpoint: a socket on a node.
struct Endpoint {
  std::size_t node = 0;
  std::size_t socket = 0;
  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

class Topology {
 public:
  /// Registers all NIC and UPI links on `flows`.  The Topology holds only
  /// link ids; the FlowScheduler owns the links.
  Topology(FlowScheduler& flows, TopologyConfig config);

  [[nodiscard]] const TopologyConfig& config() const { return config_; }
  [[nodiscard]] const ProviderProfile& provider() const { return config_.provider; }

  [[nodiscard]] LinkId nic_tx(Endpoint e) const { return nic_tx_.at(index(e)); }
  [[nodiscard]] LinkId nic_rx(Endpoint e) const { return nic_rx_.at(index(e)); }
  [[nodiscard]] LinkId upi(std::size_t node) const { return upi_.at(node); }

  /// Link path for a bulk transfer from `src` to `dst`.
  ///
  /// Same-rail endpoints use [src tx, dst rx].  When the destination socket
  /// differs from the source rail, the transfer lands on the destination
  /// node's same-rail NIC and crosses that node's UPI.  Same-node transfers
  /// use only the UPI (or nothing, same socket): they never touch the
  /// fabric.
  [[nodiscard]] std::vector<LinkId> path(Endpoint src, Endpoint dst) const;

  /// One-way latency between two endpoints (provider message latency, plus a
  /// small UPI hop when crossing sockets).
  [[nodiscard]] sim::Duration latency(Endpoint src, Endpoint dst) const;

 private:
  [[nodiscard]] std::size_t index(Endpoint e) const {
    if (e.node >= config_.nodes || e.socket >= kSocketsPerNode) {
      throw std::out_of_range("endpoint outside topology");
    }
    return e.node * kSocketsPerNode + e.socket;
  }

  TopologyConfig config_;
  std::vector<LinkId> nic_tx_;
  std::vector<LinkId> nic_rx_;
  std::vector<LinkId> upi_;
};

}  // namespace nws::net
