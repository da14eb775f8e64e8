#pragma once

#include "lb/pick.hpp"
#include "lb/policy.hpp"
#include "overlay/flowlet.hpp"

namespace clove::lb {

/// Edge-Flowlet (§3.2 / §5): congestion-oblivious flowlet switching at the
/// edge. The outer source port is a hash of the inner 5-tuple plus the
/// flowlet id, i.e. a fresh pseudo-random port per flowlet. Despite knowing
/// nothing about path state it inherits indirect congestion awareness:
/// congested paths delay ACK clocking, which opens inter-packet gaps, which
/// spawns new flowlets that hash elsewhere.
class EdgeFlowletPolicy : public Policy {
 public:
  explicit EdgeFlowletPolicy(sim::Time flowlet_gap = 100 * sim::kMicrosecond)
      : flowlets_(flowlet_gap) {}

  using Policy::pick_port;

  std::uint16_t pick_port(const net::Packet& inner, net::IpAddr dst,
                          sim::Time now, PickInfo* info) override {
    (void)dst;
    return flowlet_hash_pick(flowlets_.touch(inner.inner, now), inner.inner,
                             0xF10Du, info);
  }

  [[nodiscard]] std::string name() const override { return "edge-flowlet"; }
  [[nodiscard]] overlay::FlowletTracker* flowlet_tracker() override {
    return &flowlets_;
  }

 private:
  overlay::FlowletTracker flowlets_;
};

}  // namespace clove::lb
