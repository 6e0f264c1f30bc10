#include "net/topology.h"

#include "common/table.h"

namespace nws::net {
namespace {

constexpr double kNicRawCapacity = gib_per_sec(12.5);  // OmniPath adapter (paper 6.1)
constexpr double kUpiCapacity = gib_per_sec(20.0);     // node-internal cross-socket fabric

}  // namespace

Topology::Topology(FlowScheduler& flows, TopologyConfig config) : config_(std::move(config)) {
  if (config_.nodes == 0) throw std::invalid_argument("topology needs at least one node");

  for (std::size_t n = 0; n < config_.nodes; ++n) {
    for (std::size_t s = 0; s < kSocketsPerNode; ++s) {
      Link tx;
      tx.name = strf("node%zu.sock%zu.nic.tx", n, s);
      tx.raw_capacity = kNicRawCapacity;
      tx.efficiency = config_.provider.nic_curve;
      nic_tx_.push_back(flows.add_link(std::move(tx)));

      Link rx;
      rx.name = strf("node%zu.sock%zu.nic.rx", n, s);
      rx.raw_capacity = kNicRawCapacity;
      rx.efficiency = config_.provider.nic_curve;
      nic_rx_.push_back(flows.add_link(std::move(rx)));
    }
    Link upi;
    upi.name = strf("node%zu.upi", n);
    upi.raw_capacity = kUpiCapacity;
    upi_.push_back(flows.add_link(std::move(upi)));
  }
}

std::vector<LinkId> Topology::path(Endpoint src, Endpoint dst) const {
  if (src.node == dst.node) {
    if (src.socket == dst.socket) return {};
    return {upi(src.node)};
  }
  // Fabric hop on the source socket's rail.
  std::vector<LinkId> out;
  out.reserve(3);
  out.push_back(nic_tx(src));
  out.push_back(nic_rx(Endpoint{dst.node, src.socket}));
  if (dst.socket != src.socket) out.push_back(upi(dst.node));
  return out;
}

sim::Duration Topology::latency(Endpoint src, Endpoint dst) const {
  if (src.node == dst.node && src.socket == dst.socket) return sim::microseconds(0.3);
  sim::Duration lat = config_.provider.message_latency;
  if (src.node == dst.node) lat = sim::microseconds(0.8);  // UPI hop only
  else if (dst.socket != src.socket) lat += sim::microseconds(0.5);
  return lat;
}

}  // namespace nws::net
