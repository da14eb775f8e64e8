// Fat-tree demo: Clove's topology-agnosticism (§3.1) on a 3-tier k-ary
// fat-tree. Builds a k=4 fat-tree of Clove hypervisors through the same
// harness::Testbed as the leaf-spine experiments, discovers the
// (k/2)^2 link-disjoint cross-pod paths, runs cross-pod transfers under
// Clove-ECN, then fails a core link mid-run and shows rediscovery.
//
//   ./fat_tree_clove [k]

#include <cstdio>
#include <cstdlib>

#include "harness/experiment.hpp"
#include "transport/tcp.hpp"

int main(int argc, char** argv) {
  using namespace clove;

  harness::ExperimentConfig cfg;
  cfg.scheme = harness::Scheme::kCloveEcn;
  cfg.fat_tree_k = argc > 1 ? std::atoi(argv[1]) : 4;
  if (cfg.fat_tree_k < 2 || cfg.fat_tree_k % 2 != 0) {
    std::fprintf(stderr, "usage: fat_tree_clove [even k >= 2]\n");
    return 2;
  }
  cfg.discovery.probe_timeout = 5 * sim::kMillisecond;
  cfg.discovery.probe_interval = 100 * sim::kMillisecond;
  cfg.discovery.max_ttl = 8;
  cfg.discovery.sample_ports = 64;
  cfg.discovery.k_paths = 16;
  harness::Testbed tb(cfg);
  sim::Simulator& sim = tb.simulator();
  net::Topology& topo = tb.topology();
  const net::FatTree& ft = tb.fat_tree();
  const int k = cfg.fat_tree_k;

  // The first client (pod 0) and the first host of the last pod.
  overlay::Hypervisor* src = tb.clients().front();
  auto* dst = static_cast<overlay::Hypervisor*>(
      ft.hosts_by_pod[static_cast<std::size_t>(k - 1)][0]);

  std::printf("k=%d fat-tree: %zu hosts, %zu core switches, %d cross-pod "
              "paths expected\n\n",
              k, ft.host_count(), ft.core.size(), ft.cross_pod_paths());

  src->start_discovery({dst->ip()});
  dst->start_discovery({src->ip()});
  sim.run(sim::milliseconds(10));

  const overlay::PathSet* ps = src->discovery().paths(dst->ip());
  if (ps == nullptr) {
    std::printf("discovery failed\n");
    return 1;
  }
  std::printf("discovered %zu paths %s -> %s:\n", ps->size(),
              src->name().c_str(), dst->name().c_str());
  for (const auto& path : ps->paths) {
    std::printf("  port %5u: ", path.port);
    for (std::size_t h = 0; h < path.hops.size(); ++h) {
      const net::Node* n = topo.node_by_ip(path.hops[h].node);
      std::printf("%s%s", h ? " -> " : "", n ? n->name().c_str() : "?");
    }
    std::printf("\n");
  }

  // A cross-pod transfer under Clove-ECN.
  transport::TcpConfig tcfg;
  tcfg.min_rto = 10 * sim::kMillisecond;
  tcfg.ecn = true;
  transport::TcpSender tx(
      *src, net::FiveTuple{src->ip(), dst->ip(), 9000, 80, net::Proto::kTcp},
      tcfg);
  src->register_endpoint(tx.tuple(), &tx);
  sim::Time done_at = 0;
  const std::uint64_t bytes = 20'000'000;
  const sim::Time t0 = sim.now();
  tx.write(bytes, [&](sim::Time t) {
    done_at = t;
    sim.stop();
  });
  sim.run(sim::seconds(30.0));
  const double gbps =
      static_cast<double>(bytes) * 8.0 / sim::to_seconds(done_at - t0) / 1e9;
  std::printf("\n20MB cross-pod transfer: %.2f Gb/s (host links: %.0fG)\n",
              gbps, ft.cfg.host_gbps);

  // Fail the core link the first discovered path uses, re-probe, and show
  // the new mapping avoids the dead core.
  sim.clear_stop();
  const net::IpAddr dead_core = ps->paths[0].hops[2].node;
  net::Link* victim = nullptr;
  for (const auto& l : topo.links()) {
    if (l->dst()->ip() == dead_core && !l->is_down()) {
      victim = l.get();
      break;
    }
  }
  if (victim != nullptr) {
    std::printf("\nfailing a link into core switch %s and re-probing...\n",
                topo.node_by_ip(dead_core)->name().c_str());
    topo.fail_connection(victim);
    src->discovery().probe_now(dst->ip());
    sim.run(sim.now() + sim::milliseconds(20));
    const overlay::PathSet* ps2 = src->discovery().paths(dst->ip());
    std::printf("rediscovered %zu paths (route epoch %d)\n",
                ps2 ? ps2->size() : 0, topo.route_epoch());
  }
  return 0;
}
