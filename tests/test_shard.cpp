// Sharded single-run determinism (DESIGN.md §11): one fixed-seed k=8
// fat-tree run — staggered cross-pod traffic, an armed fault plan (link
// flap + silent drop + deferred route convergence), full flight recorder —
// must produce digest-identical telemetry and identical per-host delivery
// counts at every CLOVE_SHARDS x CLOVE_THREADS combination. The digest folds
// every shard scope's metrics plus per-host received counts plus the audit
// totals, so any divergence in packet fates, drop accounting, or journey
// bookkeeping breaks the comparison.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "harness/shard_runner.hpp"
#include "net/fat_tree.hpp"
#include "net/link.hpp"
#include "net/packet_pool.hpp"
#include "net/shard.hpp"
#include "net/topology.hpp"
#include "overlay/paths.hpp"
#include "sim/simulator.hpp"
#include "telemetry/scope.hpp"

namespace clove {
namespace {

class SinkHost : public net::Node {
 public:
  SinkHost(net::NodeId id, std::string name) : Node(id, std::move(name)) {}
  void receive(net::PacketPtr pkt, int /*in_port*/) override {
    ++received;
    pkt.reset();
  }
  std::uint64_t received{0};
};

struct RunResult {
  std::string digest;
  std::uint64_t received{0};
  std::uint64_t windows{0};
  int faults_applied{0};
};

/// One complete sharded run; everything about it is fixed except the
/// shard/thread decomposition under test.
RunResult run_once(int shards, unsigned threads) {
  telemetry::ScopeSettings settings;
  settings.enabled = true;
  settings.flight.mode = telemetry::FlightMode::kFull;
  telemetry::Scope scope(settings);
  telemetry::ScopeGuard guard(scope);

  sim::Simulator sim(/*seed=*/7);
  net::ShardDomain dom(sim, shards, /*seed=*/7);
  net::Topology topo(sim);
  topo.set_shard_domain(&dom);

  net::FatTreeConfig cfg;
  cfg.k = 8;
  net::FatTree ft = net::build_fat_tree(
      topo, cfg, [](net::Topology& t, const std::string& name, int /*pod*/) {
        return t.add_host<SinkHost>(name);
      });

  // The fault plan exercises every global-action path: a cross-shard core
  // uplink flaps (down + deferred route recompute, later up + recompute)
  // and another silently eats half its packets. The down->up gap is far
  // larger than the link propagation, so drop accounting is shard-exact.
  fault::FaultPlan plan;
  plan.route_convergence = 2 * sim::kMillisecond;
  plan.add(3 * sim::kMillisecond, fault::FaultKind::kLinkDown, "A0.0->C0.0#0");
  plan.add(4 * sim::kMillisecond, fault::FaultKind::kLinkDrop, "A1.1->C1.1#0",
           0.5);
  plan.add(9 * sim::kMillisecond, fault::FaultKind::kLinkUp, "A0.0->C0.0#0");
  fault::FaultInjector inj(topo, plan);
  inj.arm();

  harness::ShardRunner runner(dom, threads);

  // Staggered cross-pod injections, pre-scheduled on each source's own shard
  // simulator so they flow through the fault window (3..11 ms).
  const int pods = ft.n_pods();
  for (int pod = 0; pod < pods; ++pod) {
    const auto& hs = ft.hosts_by_pod[static_cast<std::size_t>(pod)];
    const auto& peers =
        ft.hosts_by_pod[static_cast<std::size_t>((pod + pods / 2) % pods)];
    for (std::size_t i = 0; i < hs.size(); ++i) {
      net::Node* src = hs[i];
      net::Node* dst = peers[i % peers.size()];
      sim::Simulator& ssim = dom.sim(topo.shard_of(src));
      for (int b = 0; b < 48; ++b) {
        const sim::Time at = static_cast<sim::Time>(b) * 250 * sim::kMicrosecond +
                             static_cast<sim::Time>(pod + 1) * sim::kMicrosecond;
        ssim.schedule_at(at, [src, dst, b, &ssim] {
          auto pkt = net::make_packet(ssim);
          pkt->inner = net::FiveTuple{
              src->ip(), dst->ip(),
              static_cast<std::uint16_t>(overlay::kEphemeralBase +
                                         ((static_cast<unsigned>(b) * 37u) &
                                          1023u)),
              7471, net::Proto::kStt};
          pkt->payload = 1460;
          pkt->ttl = 64;
          src->port(0)->enqueue(std::move(pkt));
        });
      }
    }
  }

  runner.run(20 * sim::kMillisecond);

  RunResult out;
  out.digest = runner.metrics_digest(topo, &inj);
  out.windows = runner.windows();
  out.faults_applied = inj.stats().events_applied;

  for (int pod = 0; pod < pods; ++pod) {
    for (net::Node* h : ft.hosts_by_pod[static_cast<std::size_t>(pod)]) {
      auto* sink = static_cast<SinkHost*>(h);
      out.received += sink->received;
      out.digest += h->name();
      out.digest += ' ';
      out.digest += std::to_string(sink->received);
      out.digest += '\n';
    }
  }

  std::uint64_t audit_total = 0;
  for (int s = 0; s < shards; ++s) {
    if (auto* fr = runner.scope(s).flight_recorder()) {
      fr->audit_conservation(dom.sim(s).now());
      audit_total += fr->audit().total();
    }
  }
  out.digest += "audit ";
  out.digest += std::to_string(audit_total);
  out.digest += '\n';
  return out;
}

TEST(ShardDeterminism, DigestIdenticalAcrossShardAndThreadCounts) {
  const RunResult serial = run_once(/*shards=*/1, /*threads=*/1);
  ASSERT_GT(serial.received, 0u);
  ASSERT_EQ(serial.faults_applied, 3);
  // The digest must carry real signal, not vacuously match as empty.
  EXPECT_NE(serial.digest.find("link.tx_packets"), std::string::npos);
  EXPECT_NE(serial.digest.find("link.drops_down"), std::string::npos);
  EXPECT_NE(serial.digest.find("audit 0\n"), std::string::npos)
      << "every packet must be accounted for:\n"
      << serial.digest;

  const int shard_counts[] = {2, 4};
  const unsigned thread_counts[] = {1, 4};
  for (int s : shard_counts) {
    for (unsigned t : thread_counts) {
      const RunResult r = run_once(s, t);
      EXPECT_EQ(r.received, serial.received) << "shards=" << s << " threads=" << t;
      EXPECT_EQ(r.digest, serial.digest)
          << "sharded run diverged at shards=" << s << " threads=" << t;
      EXPECT_GT(r.windows, 1u)
          << "a sharded fat-tree run must take multiple lookahead windows";
    }
  }
}

TEST(ShardDeterminism, SingleShardMatchesUnshardedEngine) {
  // CLOVE_SHARDS=1 must be the plain serial engine: same digest whether the
  // run goes through ShardRunner's window loop or Simulator::run directly.
  const RunResult via_runner = run_once(1, 1);

  telemetry::ScopeSettings settings;
  settings.enabled = true;
  settings.flight.mode = telemetry::FlightMode::kFull;
  telemetry::Scope scope(settings);
  telemetry::ScopeGuard guard(scope);

  sim::Simulator sim(/*seed=*/7);
  net::Topology topo(sim);  // no domain at all: the pre-shard code path
  net::FatTreeConfig cfg;
  cfg.k = 8;
  net::FatTree ft = net::build_fat_tree(
      topo, cfg, [](net::Topology& t, const std::string& name, int /*pod*/) {
        return t.add_host<SinkHost>(name);
      });
  fault::FaultPlan plan;
  plan.route_convergence = 2 * sim::kMillisecond;
  plan.add(3 * sim::kMillisecond, fault::FaultKind::kLinkDown, "A0.0->C0.0#0");
  plan.add(4 * sim::kMillisecond, fault::FaultKind::kLinkDrop, "A1.1->C1.1#0",
           0.5);
  plan.add(9 * sim::kMillisecond, fault::FaultKind::kLinkUp, "A0.0->C0.0#0");
  fault::FaultInjector inj(topo, plan);
  inj.arm();

  const int pods = ft.n_pods();
  std::uint64_t received = 0;
  for (int pod = 0; pod < pods; ++pod) {
    const auto& hs = ft.hosts_by_pod[static_cast<std::size_t>(pod)];
    const auto& peers =
        ft.hosts_by_pod[static_cast<std::size_t>((pod + pods / 2) % pods)];
    for (std::size_t i = 0; i < hs.size(); ++i) {
      net::Node* src = hs[i];
      net::Node* dst = peers[i % peers.size()];
      for (int b = 0; b < 48; ++b) {
        const sim::Time at = static_cast<sim::Time>(b) * 250 * sim::kMicrosecond +
                             static_cast<sim::Time>(pod + 1) * sim::kMicrosecond;
        sim.schedule_at(at, [src, dst, b, &sim] {
          auto pkt = net::make_packet(sim);
          pkt->inner = net::FiveTuple{
              src->ip(), dst->ip(),
              static_cast<std::uint16_t>(overlay::kEphemeralBase +
                                         ((static_cast<unsigned>(b) * 37u) &
                                          1023u)),
              7471, net::Proto::kStt};
          pkt->payload = 1460;
          pkt->ttl = 64;
          src->port(0)->enqueue(std::move(pkt));
        });
      }
    }
  }
  sim.run(20 * sim::kMillisecond);
  for (int pod = 0; pod < pods; ++pod) {
    for (net::Node* h : ft.hosts_by_pod[static_cast<std::size_t>(pod)]) {
      received += static_cast<SinkHost*>(h)->received;
    }
  }
  EXPECT_EQ(received, via_runner.received);
  EXPECT_EQ(inj.stats().events_applied, 3);
}

TEST(ShardDomain, LookaheadIsMinCrossShardPropagation) {
  sim::Simulator sim(1);
  net::ShardDomain dom(sim, 4, 1);
  net::Topology topo(sim);
  topo.set_shard_domain(&dom);
  net::FatTreeConfig cfg;
  cfg.k = 4;
  (void)net::build_fat_tree(
      topo, cfg, [](net::Topology& t, const std::string& name, int /*pod*/) {
        return t.add_host<SinkHost>(name);
      });
  EXPECT_EQ(dom.lookahead(), cfg.link_propagation);
  EXPECT_EQ(dom.shard_count(), 4);
  // Pods land on their own shards (pod 1 -> shard 1, not the main shard).
  for (net::Switch* sw : topo.switches()) {
    if (sw->name() == "E1.0") {
      EXPECT_EQ(topo.shard_of(sw), 1);
    }
    if (sw->name() == "E3.1") {
      EXPECT_EQ(topo.shard_of(sw), 3);
    }
  }
}

TEST(ShardChannel, StageAndDrainKeepPathRecords) {
  // A Clove-INT, hybrid-traced packet crossing shards is copied into the
  // channel at stage() and into the destination shard's pool at the drain;
  // both records must arrive, with the crossing link's own hop appended.
  struct KeepHost : net::Node {
    using Node::Node;
    void receive(net::PacketPtr pkt, int /*in_port*/) override {
      got = std::move(pkt);
    }
    net::PacketPtr got;
  };
  sim::Simulator sim(1);
  net::ShardDomain dom(sim, 2, 1);
  KeepHost sink(1, "sink");  // after dom: returns its packet to a live pool
  net::LinkConfig cfg;
  cfg.int_telemetry = true;
  net::Link link(dom.sim(0), 5, "x", &sink, 0, cfg);
  link.set_channel(dom.make_channel(&link, 0, 1));

  auto p = net::make_packet(dom.sim(0));
  p->payload = 100;
  p->enable_int().push(0.5f);
  p->start_trace().push(3);
  const std::uint64_t uid = p->uid;
  link.enqueue(std::move(p));
  dom.sim(0).run();
  ASSERT_EQ(link.channel()->staged_count(), 1u);
  dom.drain_channels();
  dom.sim(1).run();

  ASSERT_NE(sink.got, nullptr);
  const net::Packet& q = *sink.got;
  EXPECT_EQ(q.uid, uid);
  EXPECT_TRUE(q.int_enabled());
  EXPECT_TRUE(q.trace_active());
  const net::PathRecord* rec = q.path_record();
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->int_stack.count, 2);
  EXPECT_FLOAT_EQ(rec->int_stack.util[0], 0.5f);
  ASSERT_EQ(rec->trace.count, 2);
  EXPECT_EQ(rec->trace.links[0], 3u);
  EXPECT_EQ(rec->trace.links[1], 5u);
  // The source packet went back to its own pool with its record kept.
  auto back = net::make_packet(dom.sim(0));
  ASSERT_NE(back->path_record(), nullptr);
  EXPECT_EQ(back->path_record()->int_stack.count, 0);
  EXPECT_NE(back->path_record(), rec);
}

TEST(ShardRunner, DefaultShardsReadsEnv) {
  EXPECT_GE(harness::default_shards(), 1);
}

}  // namespace
}  // namespace clove
