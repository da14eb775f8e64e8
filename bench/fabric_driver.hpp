#pragma once

// Synthetic forwarding traffic for the fabric benches (bench_fabric_forwarding,
// bench_scale): sink hosts, a round-based packet injector and the cross-pod
// fat-tree pairing. Header-only and allocation-free per packet, so a bench
// that counts heap allocations prices the datapath, not this driver.

#include <cstdint>
#include <string>
#include <vector>

#include "net/fat_tree.hpp"
#include "net/packet_pool.hpp"
#include "net/topology.hpp"
#include "overlay/paths.hpp"
#include "sim/simulator.hpp"

namespace clove::bench {

/// A host that terminates packets (returning them to the simulator's pool).
class SinkHost : public net::Node {
 public:
  SinkHost(net::NodeId id, std::string name) : Node(id, std::move(name)) {}
  void receive(net::PacketPtr pkt, int /*in_port*/) override {
    ++received;
    pkt.reset();
  }
  std::uint64_t received{0};
};

/// Inject `batch` packets from every source host towards a fixed remote
/// destination per source, cycling source ports so ECMP and flowlet tables
/// see a realistic mix of repeated and fresh tuples, then drain the sim.
struct TrafficDriver {
  std::vector<net::Node*> sources;
  std::vector<net::Node*> dests;  ///< dests[i] is the peer of sources[i]
  int batch{8};
  std::uint32_t port_cycle{0};

  /// One packet from `src` to `dst` on source port `cycle` (mod 1024) of
  /// the ephemeral range.
  static net::PacketPtr make(sim::Simulator& sim, const net::Node* src,
                             const net::Node* dst, std::uint32_t cycle) {
    auto pkt = net::make_packet(sim);
    pkt->inner = net::FiveTuple{
        src->ip(), dst->ip(),
        static_cast<std::uint16_t>(overlay::kEphemeralBase + (cycle & 1023u)),
        7471, net::Proto::kStt};
    pkt->payload = 1460;
    pkt->ttl = 64;
    return pkt;
  }

  std::uint64_t run_round(sim::Simulator& sim) {
    std::uint64_t injected = 0;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      for (int b = 0; b < batch; ++b) {
        sources[i]->port(0)->enqueue(
            make(sim, sources[i], dests[i],
                 port_cycle + static_cast<std::uint32_t>(b)));
        ++injected;
      }
    }
    port_cycle += 7;  // shift the tuple window between rounds
    sim.run();
    return injected;
  }
};

/// Build a k-ary fat-tree of SinkHosts into `topo` and return a driver in
/// which host i of pod p sends to host i of pod (p + pods/2) % pods, so
/// every packet crosses the core (5 switch hops).
inline TrafficDriver cross_pod_driver(net::Topology& topo, int k, int batch) {
  net::FatTreeConfig cfg;
  cfg.k = k;
  const net::FatTree ft = net::build_fat_tree(
      topo, cfg, [](net::Topology& t, const std::string& name, int /*pod*/) {
        return t.add_host<SinkHost>(name);
      });
  TrafficDriver driver;
  driver.batch = batch;
  const int pods = ft.n_pods();
  for (int pod = 0; pod < pods; ++pod) {
    const auto& hosts = ft.hosts_by_pod[static_cast<std::size_t>(pod)];
    const auto& peers =
        ft.hosts_by_pod[static_cast<std::size_t>((pod + pods / 2) % pods)];
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      driver.sources.push_back(hosts[i]);
      driver.dests.push_back(peers[i % peers.size()]);
    }
  }
  return driver;
}

}  // namespace clove::bench
