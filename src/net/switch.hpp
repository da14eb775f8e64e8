#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"

namespace clove::net {

/// Per-switch forwarding counters.
struct SwitchStats {
  std::uint64_t forwarded{0};
  std::uint64_t no_route_drops{0};
  std::uint64_t ttl_drops{0};
  std::uint64_t probe_replies{0};
};

/// One dense route-table entry: the ECMP next-hop port set for a
/// destination. Ports are stored inline (a switch radix in the simulated
/// fat-trees is small) with a heap spill only for port sets wider than
/// kInline, so the per-packet route lookup touches exactly one cache line
/// of the dense table and no pointer chases.
class PortSet {
 public:
  static constexpr std::size_t kInline = 8;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const int* data() const {
    return spill_.empty() ? inline_.data() : spill_.data();
  }
  [[nodiscard]] int operator[](std::size_t i) const { return data()[i]; }
  [[nodiscard]] const int* begin() const { return data(); }
  [[nodiscard]] const int* end() const { return data() + size_; }

  void assign(const std::vector<int>& ports) {
    clear();
    if (ports.size() > kInline) {
      spill_ = ports;
    } else {
      for (std::size_t i = 0; i < ports.size(); ++i) inline_[i] = ports[i];
    }
    size_ = ports.size();
  }
  void clear() {
    size_ = 0;
    spill_.clear();  // keeps capacity: recomputing routes stays allocation-light
  }

 private:
  std::size_t size_{0};
  std::array<int, kInline> inline_{};
  std::vector<int> spill_;
};

/// A standard off-the-shelf L3 switch: shortest-path routes with ECMP
/// hashing over the wire 5-tuple, TTL handling, and TTL-expiry replies to
/// traceroute probes (the only switch feature Clove's path discovery needs).
///
/// The ECMP hash is salted with the switch id so different switches make
/// independent decisions, exactly like per-device hash seeds in real gear.
/// The next-hop is `hash % n_nexthops` — so any change in the size of the
/// next-hop set (e.g. a link failure) remaps all flows, the property that
/// forces Clove to re-run path discovery after topology changes (§3.1).
class Switch : public Node {
 public:
  Switch(sim::Simulator& sim, NodeId id, std::string name);

  void receive(PacketPtr pkt, int in_port) override;

  /// Replace the ECMP port set for a destination IP. IP addresses are node
  /// ids — small and dense — so routes live in a flat vector indexed by
  /// destination instead of a hash map: the per-packet lookup is a bounds
  /// check plus one array index.
  void set_route(IpAddr dst, std::vector<int> ports) {
    if (dst >= routes_.size()) routes_.resize(dst + 1);
    routes_[dst].assign(ports);
  }
  void clear_routes() {
    for (PortSet& e : routes_) e.clear();
  }

  [[nodiscard]] const PortSet* route(IpAddr dst) const {
    if (dst >= routes_.size() || routes_[dst].empty()) return nullptr;
    return &routes_[dst];
  }

  [[nodiscard]] const SwitchStats& stats() const { return stats_; }

  /// The ECMP port choice this switch would make for a tuple (exposed so
  /// tests can verify discovery finds the true mapping).
  [[nodiscard]] int ecmp_port(const FiveTuple& t, std::size_t n) const {
    return static_cast<int>(hash_tuple(t, id()) % n);
  }

 protected:
  /// Hook for subclasses (CONGA / LetFlow leaves) to override the egress
  /// port choice for routable packets. Default: the packet's cached wire
  /// prehash finalized with the switch-id salt (== hash_tuple(wire_tuple,
  /// id()) without re-mixing the tuple at every hop).
  virtual int select_port(const Packet& pkt, const PortSet& ports,
                          int in_port);

  /// Hook invoked before forwarding, after TTL handling (for feedback
  /// piggybacking etc.). Default: no-op.
  virtual void on_forward(Packet& pkt, int egress_port, int in_port);

  void forward(PacketPtr pkt, int in_port);
  void send_probe_reply(const Packet& probe, int in_port);

  sim::Simulator& sim_;
  SwitchStats stats_;

 private:
  std::vector<PortSet> routes_;  // indexed by destination IpAddr (node id)
};

}  // namespace clove::net
