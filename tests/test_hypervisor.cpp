// Tests for the hypervisor vswitch datapath: encapsulation, feedback
// interception and relay, ECN masking, forged-ECE relay, non-overlay mode.

#include <gtest/gtest.h>

#include "lb/clove_ecn.hpp"
#include "lb/ecmp.hpp"
#include "net/topology.hpp"
#include "overlay/hypervisor.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace clove::overlay {
namespace {

using clove::testutil::SinkNode;
using clove::testutil::make_data;
using clove::testutil::tuple;

/// Two hypervisors joined by one switch, so we can observe wire packets.
class HypPair : public ::testing::Test {
 protected:
  void build(HypervisorConfig acfg, std::unique_ptr<lb::Policy> apol,
             HypervisorConfig bcfg, std::unique_ptr<lb::Policy> bpol) {
    topo = std::make_unique<net::Topology>(sim);
    sw = topo->add_switch("sw");
    a = topo->add_host<Hypervisor>("a", sim, acfg, std::move(apol));
    b = topo->add_host<Hypervisor>("b", sim, bcfg, std::move(bpol));
    net::LinkConfig lc;
    lc.rate_bytes_per_sec = sim::gbps_to_bytes_per_sec(10);
    lc.propagation = 1 * sim::kMicrosecond;
    topo->connect(a, sw, lc);
    topo->connect(b, sw, lc);
    topo->compute_routes();
  }

  void build_default() {
    build(HypervisorConfig{}, std::make_unique<lb::EcmpPolicy>(),
          HypervisorConfig{}, std::make_unique<lb::EcmpPolicy>());
  }

  sim::Simulator sim;
  std::unique_ptr<net::Topology> topo;
  net::Switch* sw{nullptr};
  Hypervisor* a{nullptr};
  Hypervisor* b{nullptr};
};

TEST_F(HypPair, EncapsulatesOutgoingTenantTraffic) {
  build_default();
  auto pkt = make_data(tuple(a->ip(), b->ip()), 0, 1000);
  a->vm_send(std::move(pkt));
  sim.run();
  EXPECT_EQ(a->stats().encapped, 1u);
  EXPECT_EQ(b->stats().decapped, 1u);
}

TEST_F(HypPair, DeliveryAutoCreatesReceiverAndAcksFlowBack) {
  build_default();
  bool created = false;
  b->on_new_receiver = [&](transport::TcpReceiver&, const net::FiveTuple&) {
    created = true;
  };
  // A real sender endpoint on a:
  transport::TcpConfig tcfg;
  tcfg.min_rto = 10 * sim::kMillisecond;
  transport::TcpSender tx(*a, tuple(a->ip(), b->ip()), tcfg);
  a->register_endpoint(tx.tuple(), &tx);
  bool done = false;
  tx.write(100'000, [&](sim::Time) { done = true; });
  sim.run();
  EXPECT_TRUE(created);
  EXPECT_TRUE(done);
}

TEST_F(HypPair, LocalDeliveryBypassesNetwork) {
  build_default();
  auto pkt = make_data(tuple(a->ip(), a->ip()), 0, 100);
  a->vm_send(std::move(pkt));
  EXPECT_EQ(a->stats().local_deliveries, 1u);
  EXPECT_EQ(a->stats().encapped, 0u);
}

TEST_F(HypPair, CloveSetsOuterEct) {
  build(HypervisorConfig{}, std::make_unique<lb::CloveEcnPolicy>(),
        HypervisorConfig{}, std::make_unique<lb::CloveEcnPolicy>());
  // Sniff at b: the packet must arrive with outer ECT (CE not set).
  auto pkt = make_data(tuple(a->ip(), b->ip()), 0, 1000);
  a->vm_send(std::move(pkt));
  sim.run();
  EXPECT_EQ(b->stats().decapped, 1u);
  EXPECT_EQ(b->stats().ce_intercepted, 0u);
}

TEST_F(HypPair, CeInterceptedMaskedAndRelayed) {
  build(HypervisorConfig{}, std::make_unique<lb::CloveEcnPolicy>(),
        HypervisorConfig{}, std::make_unique<lb::CloveEcnPolicy>());
  // Craft an encapsulated packet with CE set, as if marked by the fabric.
  auto pkt = make_data(tuple(a->ip(), b->ip()), 0, 1000);
  pkt->encap.present = true;
  pkt->encap.tuple = net::FiveTuple{a->ip(), b->ip(), 51000, kSttPort,
                                    net::Proto::kStt};
  pkt->encap.ecn.ect = true;
  pkt->encap.ecn.ce = true;
  b->receive(std::move(pkt), 0);
  EXPECT_EQ(b->stats().ce_intercepted, 1u);

  // The inner packet delivered to the VM must NOT carry CE (masking): the
  // auto-created receiver observed a clean packet — verify via the ACK it
  // sent back: no ECE echo.
  sim.run();
  // Feedback rides b's next packet toward a: send one.
  auto rev = make_data(tuple(b->ip(), a->ip()), 0, 100);
  b->vm_send(std::move(rev));
  sim.run();
  EXPECT_GE(b->stats().feedback_attached, 1u);
  EXPECT_GE(a->stats().feedback_received, 1u);
}

TEST_F(HypPair, FeedbackRelayIsRateLimited) {
  HypervisorConfig hc;
  hc.feedback_relay_interval = sim::seconds(1.0);  // very slow relay
  build(HypervisorConfig{}, std::make_unique<lb::CloveEcnPolicy>(), hc,
        std::make_unique<lb::CloveEcnPolicy>());
  // Many CE-marked arrivals on the same forward port...
  for (int i = 0; i < 10; ++i) {
    auto pkt = make_data(tuple(a->ip(), b->ip()), i * 1000, 1000);
    pkt->encap.present = true;
    pkt->encap.tuple = net::FiveTuple{a->ip(), b->ip(), 51000, kSttPort,
                                      net::Proto::kStt};
    pkt->encap.ecn.ect = true;
    pkt->encap.ecn.ce = true;
    b->receive(std::move(pkt), 0);
  }
  // ...and many reverse packets: only ONE should carry feedback within the
  // relay interval.
  for (int i = 0; i < 10; ++i) {
    b->vm_send(make_data(tuple(b->ip(), a->ip()), i * 100, 100));
  }
  sim.run();
  EXPECT_EQ(b->stats().feedback_attached, 1u);
}

TEST_F(HypPair, ForgedEceWhenAllPathsCongested) {
  // Give a's policy a path set and congest every path, then deliver an ACK
  // from b: it must arrive at the VM with ECE set.
  auto pol = std::make_unique<lb::CloveEcnPolicy>();
  lb::CloveEcnPolicy* clove = pol.get();
  build(HypervisorConfig{}, std::move(pol), HypervisorConfig{},
        std::make_unique<lb::CloveEcnPolicy>());

  PathSet ps;
  for (std::uint16_t i = 0; i < 2; ++i) {
    PathInfo info;
    info.port = static_cast<std::uint16_t>(50000 + i);
    info.hops = {{sw->ip(), static_cast<int>(i)}, {b->ip(), 0}};
    ps.paths.push_back(info);
  }
  clove->on_paths_updated(b->ip(), ps);
  net::CloveFeedback fb;
  fb.present = true;
  fb.ecn_set = true;
  fb.port = 50000;
  clove->on_feedback(b->ip(), fb, sim.now());
  fb.port = 50001;
  clove->on_feedback(b->ip(), fb, sim.now());
  ASSERT_TRUE(clove->all_paths_congested(b->ip(), sim.now()));

  // Register a sender on a and deliver an encapped ACK from b.
  transport::TcpConfig tcfg;
  tcfg.ecn = true;
  transport::TcpSender tx(*a, tuple(a->ip(), b->ip()), tcfg);
  a->register_endpoint(tx.tuple(), &tx);
  tx.write(200'000, nullptr);

  auto ack = net::make_packet();
  ack->inner = tuple(a->ip(), b->ip()).reversed();
  ack->tcp.flags.ack = true;
  ack->tcp.ack = 1460;
  ack->encap.present = true;
  ack->encap.tuple = net::FiveTuple{b->ip(), a->ip(), 50500, kSttPort,
                                    net::Proto::kStt};
  a->receive(std::move(ack), 0);
  EXPECT_EQ(a->stats().forged_ece, 1u);
  EXPECT_EQ(tx.stats().ecn_reductions, 1u);  // the VM throttled
}

TEST_F(HypPair, NoForgedEceWhenSomePathClear) {
  auto pol = std::make_unique<lb::CloveEcnPolicy>();
  lb::CloveEcnPolicy* clove = pol.get();
  build(HypervisorConfig{}, std::move(pol), HypervisorConfig{},
        std::make_unique<lb::CloveEcnPolicy>());
  PathSet ps;
  for (std::uint16_t i = 0; i < 2; ++i) {
    PathInfo info;
    info.port = static_cast<std::uint16_t>(50000 + i);
    info.hops = {{sw->ip(), static_cast<int>(i)}, {b->ip(), 0}};
    ps.paths.push_back(info);
  }
  clove->on_paths_updated(b->ip(), ps);
  net::CloveFeedback fb;
  fb.present = true;
  fb.ecn_set = true;
  fb.port = 50000;
  clove->on_feedback(b->ip(), fb, sim.now());

  auto ack = net::make_packet();
  ack->inner = tuple(a->ip(), b->ip()).reversed();
  ack->tcp.flags.ack = true;
  ack->encap.present = true;
  ack->encap.tuple = net::FiveTuple{b->ip(), a->ip(), 50500, kSttPort,
                                    net::Proto::kStt};
  a->receive(std::move(ack), 0);
  EXPECT_EQ(a->stats().forged_ece, 0u);
}

TEST_F(HypPair, IntUtilizationRelayed) {
  build(HypervisorConfig{}, std::make_unique<lb::CloveEcnPolicy>(),
        HypervisorConfig{}, std::make_unique<lb::CloveEcnPolicy>());
  auto pkt = make_data(tuple(a->ip(), b->ip()), 0, 1000);
  pkt->encap.present = true;
  pkt->encap.tuple = net::FiveTuple{a->ip(), b->ip(), 51000, kSttPort,
                                    net::Proto::kStt};
  net::IntStack& stack = pkt->enable_int();
  stack.push(0.3f);
  stack.push(0.8f);
  b->receive(std::move(pkt), 0);
  b->vm_send(make_data(tuple(b->ip(), a->ip()), 0, 100));
  sim.run();
  EXPECT_GE(b->stats().feedback_attached, 1u);
}

TEST_F(HypPair, StrayAckWithoutEndpointDropped) {
  build_default();
  auto ack = net::make_packet();
  ack->inner = tuple(b->ip(), a->ip());
  ack->tcp.flags.ack = true;
  ack->payload = 0;
  a->receive(std::move(ack), 0);
  EXPECT_EQ(a->stats().no_endpoint_drops, 1u);
}

// ---------------------------------------------------------------------------
// Non-overlay mode (§7)
// ---------------------------------------------------------------------------

TEST_F(HypPair, NonOverlayRewritesAndRestoresPort) {
  HypervisorConfig no;
  no.overlay = false;
  build(no, std::make_unique<lb::EcmpPolicy>(), no,
        std::make_unique<lb::EcmpPolicy>());

  transport::TcpConfig tcfg;
  tcfg.min_rto = 10 * sim::kMillisecond;
  transport::TcpSender tx(*a, tuple(a->ip(), b->ip(), 1234), tcfg);
  a->register_endpoint(tx.tuple(), &tx);
  bool done = false;
  tx.write(50'000, [&](sim::Time) { done = true; });
  sim.run();
  // The transfer completes end to end: the destination restored the source
  // port before endpoint lookup, and ACKs found their way back the same way.
  EXPECT_TRUE(done);
  EXPECT_EQ(a->stats().encapped, 0u);
}

TEST_F(HypPair, NonOverlayDataPathDoesNotEncapsulate) {
  HypervisorConfig no;
  no.overlay = false;
  build(no, std::make_unique<lb::EcmpPolicy>(), no,
        std::make_unique<lb::EcmpPolicy>());
  a->vm_send(make_data(tuple(a->ip(), b->ip(), 1234), 0, 1000));
  sim.run();
  EXPECT_EQ(b->stats().decapped, 0u);
}

}  // namespace
}  // namespace clove::overlay
