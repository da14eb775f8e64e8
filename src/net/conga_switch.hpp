#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/switch.hpp"
#include "net/switch_flowlet.hpp"
#include "sim/random.hpp"
#include "util/flat_map.hpp"

namespace clove::net {

struct LeafSpine;

/// Configuration for the CONGA leaf behaviour.
struct CongaConfig {
  sim::Time flowlet_gap{200 * sim::kMicrosecond};
  sim::Time table_aging{10 * sim::kMillisecond};  ///< stale metrics decay to 0
  int quantization_bits{3};
};

/// A CONGA-style leaf switch (Alizadeh et al., SIGCOMM 2014), as simulated
/// by the paper's §6 NS2 comparison. The leaf:
///  * splits cross-leaf traffic into flowlets,
///  * routes each new flowlet on the uplink minimizing
///    max(local uplink DRE, remote congestion-to-leaf metric),
///  * stamps packets with (src_leaf, lb_tag, ce); fabric links max their
///    quantized DRE utilization into `ce` as the packet traverses them,
///  * records arriving `ce` per (src_leaf, lb_tag) and piggybacks it back as
///    (fb_tag, fb_ce) on reverse traffic, populating the sender's
///    congestion-to-leaf table.
///
/// Spine switches need no changes beyond links that update `ce`
/// (LinkConfig::conga_metric), which mirrors CONGA's fabric requirement.
class CongaLeafSwitch : public Switch {
 public:
  CongaLeafSwitch(sim::Simulator& sim, NodeId id, std::string name,
                  const CongaConfig& cfg = {})
      : Switch(sim, id, std::move(name)),
        cfg_(cfg),
        flowlets_(cfg.flowlet_gap),
        rng_(id * 7919u + 17u) {}

  /// Wire up fabric knowledge once the topology exists: this leaf's index,
  /// its uplink port numbers (tag i <-> uplink_ports[i]) and the leaf index
  /// of every host IP (-1 never occurs; local hosts carry this leaf's index).
  void configure_fabric(int leaf_index, std::vector<int> uplink_ports,
                        std::unordered_map<IpAddr, int> host_leaf);

  [[nodiscard]] int leaf_index() const { return leaf_index_; }
  [[nodiscard]] std::uint8_t congestion_to(int dst_leaf, int tag) const;
  [[nodiscard]] std::uint8_t congestion_from(int src_leaf, int tag) const;

 protected:
  int select_port(const Packet& pkt, const PortSet& ports,
                  int in_port) override;
  void on_forward(Packet& pkt, int egress_port, int in_port) override;

 private:
  struct Metric {
    std::uint8_t ce{0};
    sim::Time updated{-1};
  };
  using MetricTable = util::FlatMap<std::uint64_t, Metric>;
  static std::uint64_t table_key(int leaf, int tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(leaf)) << 8) |
           static_cast<std::uint8_t>(tag);
  }
  [[nodiscard]] std::uint8_t read_metric(const MetricTable& t,
                                         std::uint64_t key) const;

  [[nodiscard]] bool is_uplink(int port) const {
    for (int p : uplink_ports_) {
      if (p == port) return true;
    }
    return false;
  }
  /// Host IPs are dense node ids, so the per-packet leaf lookup is a flat
  /// array index instead of a hash probe.
  [[nodiscard]] int leaf_of(IpAddr ip) const {
    return ip < host_leaf_.size() ? host_leaf_[ip] : -1;
  }

  int pick_uplink_tag(int dst_leaf, const PortSet& live_ports);

  CongaConfig cfg_;
  int leaf_index_{-1};
  std::vector<int> uplink_ports_;
  std::vector<int> host_leaf_;  ///< leaf index by host IP; -1 = not a host

  SwitchFlowletTable flowlets_;
  MetricTable to_leaf_;    ///< congestion-to-leaf (from feedback)
  MetricTable from_leaf_;  ///< congestion-from-leaf (measured on arrivals)
  std::vector<std::uint8_t> fb_rr_;  ///< feedback round-robin, by dst leaf
  sim::Rng rng_;
};

/// Hand every CongaLeafSwitch leaf of a built leaf-spine its fabric map
/// (CongaLeafSwitch::configure_fabric): its leaf index, its spine-facing
/// uplink ports and the leaf of every host. Other leaves are left alone.
void configure_conga_leaves(const LeafSpine& fabric);

}  // namespace clove::net
