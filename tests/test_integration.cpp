// End-to-end integration tests reproducing the paper's qualitative claims at
// miniature scale: elephant-collision resolution, asymmetric adaptation,
// ECN masking in the full datapath, and failure rediscovery.

#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "lb/clove_ecn.hpp"
#include "lb/edge_flowlet.hpp"
#include "transport/tcp.hpp"
#include "workload/client_server.hpp"

namespace clove {
namespace {

using harness::ExperimentConfig;
using harness::Scheme;
using harness::Testbed;

ExperimentConfig base_cfg(Scheme s) {
  ExperimentConfig cfg = harness::make_ns2_profile();
  cfg.scheme = s;
  cfg.topo.hosts_per_leaf = 4;
  cfg.discovery.probe_timeout = 5 * sim::kMillisecond;
  cfg.traffic_start = 15 * sim::kMillisecond;
  return cfg;
}

/// Run two parallel elephants from distinct clients to distinct servers and
/// return aggregate goodput in Gb/s. With 4 clients and 40G of fabric per
/// spine pair the fabric is never the constraint unless flows collide.
double elephant_goodput(Scheme scheme, std::uint64_t seed,
                        int n_elephants = 4) {
  ExperimentConfig cfg = base_cfg(scheme);
  cfg.seed = seed;
  Testbed tb(cfg);
  tb.start_discovery();

  transport::TcpConfig tcfg = cfg.tcp;
  std::vector<std::unique_ptr<transport::TcpSender>> senders;
  int remaining = n_elephants;
  const std::uint64_t bytes = 20'000'000;
  sim::Time t_end = 0;
  for (int i = 0; i < n_elephants; ++i) {
    auto* c = tb.clients()[static_cast<std::size_t>(i) % tb.clients().size()];
    auto* s = tb.servers()[static_cast<std::size_t>(i) % tb.servers().size()];
    auto tx = std::make_unique<transport::TcpSender>(
        *c,
        net::FiveTuple{c->ip(), s->ip(),
                       static_cast<std::uint16_t>(7000 + i), 80,
                       net::Proto::kTcp},
        tcfg);
    c->register_endpoint(tx->tuple(), tx.get());
    auto* raw = tx.get();
    tb.simulator().schedule_at(cfg.traffic_start, [raw, bytes, &remaining,
                                                   &t_end, &tb] {
      raw->write(bytes, [&remaining, &t_end, &tb](sim::Time t) {
        t_end = std::max(t_end, t);
        if (--remaining == 0) tb.simulator().stop();
      });
    });
    senders.push_back(std::move(tx));
  }
  tb.simulator().run(sim::seconds(120.0));
  const double secs = sim::to_seconds(t_end - cfg.traffic_start);
  return static_cast<double>(n_elephants * bytes) * 8.0 / secs / 1e9;
}

TEST(Integration, SingleFlowReachesNearLineRate) {
  // One 20MB flow across the fabric: ~16ms at 10G. Allow generous slack for
  // slow start.
  const double gbps = elephant_goodput(Scheme::kEcmp, 3, 1);
  EXPECT_GT(gbps, 5.0);
}

TEST(Integration, CloveResolvesElephantCollisions) {
  // Under ECMP some seeds hash multiple elephants onto one 40G path pair;
  // averaged over seeds, Clove-ECN achieves at least as much goodput, and
  // strictly more in collision seeds. (4x20MB from 4 distinct hosts.)
  double ecmp = 0.0, clove = 0.0;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    ecmp += elephant_goodput(Scheme::kEcmp, seed);
    clove += elephant_goodput(Scheme::kCloveEcn, seed);
  }
  EXPECT_GE(clove, ecmp * 0.95);
  EXPECT_GT(clove / 3.0, 20.0);  // well beyond a single 10G access link x4?
}

TEST(Integration, CongestionSpawnsNewFlowlets) {
  // The mechanism behind Edge-Flowlet's implicit congestion awareness
  // (§3.2/§5.2): congested paths delay ACK clocking, opening inter-packet
  // gaps that split flows into multiple flowlets. Under a saturating
  // workload, the number of flowlets must exceed the number of flows.
  // (The FCT *ordering* between schemes is established by the Fig. 4/8
  // benches at realistic scale — at 4 hosts it is noise.)
  ExperimentConfig cfg = base_cfg(Scheme::kEdgeFlowlet);
  cfg.asymmetric = true;
  Testbed tb(cfg);
  tb.start_discovery();

  workload::ClientServerConfig wl;
  wl.jobs_per_conn = 10;
  wl.conns_per_client = 2;
  wl.load = 0.9;
  wl.tcp = cfg.tcp;
  wl.start_time = cfg.traffic_start;
  wl.bisection_bytes_per_sec = sim::gbps_to_bytes_per_sec(40.0);
  workload::ClientServerWorkload ws(tb.simulator(), wl, tb.clients(),
                                    tb.servers());
  ws.start([&] { tb.simulator().stop(); });
  tb.simulator().run(sim::seconds(120.0));

  std::uint64_t flowlets = 0;
  for (auto* c : tb.clients()) {
    auto* pol = dynamic_cast<lb::EdgeFlowletPolicy*>(&c->policy());
    ASSERT_NE(pol, nullptr);
    flowlets += pol->flowlet_tracker()->flowlets_started();
  }
  // 8 connections carrying 80 jobs: far more flowlets than connections.
  EXPECT_GT(flowlets, 8u * 4u);
}

TEST(Integration, CloveEcnAdaptsWeightsAwayFromBottleneck) {
  // Asymmetric fabric + steady cross-traffic: the Clove-ECN weights for
  // paths through S2 (the failed side) must fall below the S1 paths'.
  // This runs at the paper's full scale (16 hosts/leaf, 40G fabric links):
  // only there is the failed S2 downlink the dominant bottleneck, with the
  // 2:1 fabric-to-access speed ratio keeping uplink marking sparse. (On a
  // uniform-speed mini fabric every queue marks and the differential signal
  // washes out — which is itself a faithful property of the algorithm.)
  ExperimentConfig cfg = base_cfg(Scheme::kCloveEcn);
  cfg.topo.hosts_per_leaf = 16;
  cfg.asymmetric = true;
  cfg.tcp.min_rto = 200 * sim::kMillisecond;  // testbed profile
  Testbed tb(cfg);
  tb.start_discovery();

  workload::ClientServerConfig wl;
  wl.jobs_per_conn = 25;
  wl.conns_per_client = 2;
  wl.load = 0.7;
  wl.tcp = cfg.tcp;
  wl.start_time = cfg.traffic_start;
  wl.bisection_bytes_per_sec = sim::gbps_to_bytes_per_sec(160.0);
  workload::ClientServerWorkload ws(tb.simulator(), wl, tb.clients(),
                                    tb.servers());
  ws.start([&] { tb.simulator().stop(); });
  tb.simulator().run(sim::seconds(120.0));

  // Inspect one client's policy weights toward some server it talked to.
  const net::IpAddr s2 = tb.fabric().spines[1]->ip();
  int checked = 0;
  double s1_weight = 0.0, s2_weight = 0.0;
  for (auto* c : tb.clients()) {
    auto* pol = dynamic_cast<lb::CloveEcnPolicy*>(&c->policy());
    ASSERT_NE(pol, nullptr);
    for (auto* s : tb.servers()) {
      const overlay::PathSet* ps = c->discovery().paths(s->ip());
      if (ps == nullptr) continue;
      const auto w = pol->weights(s->ip());
      if (w.size() != ps->paths.size() || w.empty()) continue;
      // Skip pairs that carried no traffic: their weights never adapted
      // from uniform and only dilute the measurement.
      double mn = 1.0, mx = 0.0;
      for (double x : w) {
        mn = std::min(mn, x);
        mx = std::max(mx, x);
      }
      if (mx - mn < 0.02) continue;
      for (std::size_t i = 0; i < ps->paths.size(); ++i) {
        bool via_s2 = false;
        for (const auto& hop : ps->paths[i].hops) {
          if (hop.node == s2) via_s2 = true;
        }
        (via_s2 ? s2_weight : s1_weight) += w[i];
        ++checked;
      }
    }
  }
  ASSERT_GT(checked, 0);
  // Aggregate weight mass on S1 paths exceeds S2 paths (S2 lost capacity).
  EXPECT_GT(s1_weight, s2_weight);
}

TEST(Integration, MptcpUsesMultiplePathsForOneConnection) {
  ExperimentConfig cfg = base_cfg(Scheme::kMptcp);
  Testbed tb(cfg);
  auto* c = tb.clients()[0];
  auto* s = tb.servers()[0];
  transport::MptcpConfig mcfg = cfg.mptcp;
  mcfg.tcp = cfg.tcp;
  transport::MptcpSender m(
      *c, net::FiveTuple{c->ip(), s->ip(), 9000, 80, net::Proto::kTcp}, mcfg);
  for (auto* sf : m.endpoints()) c->register_endpoint(sf->tuple(), sf);
  bool done = false;
  m.write(8'000'000, [&](sim::Time) {
    done = true;
    tb.simulator().stop();
  });
  tb.simulator().run(sim::seconds(60.0));
  EXPECT_TRUE(done);
  int active = 0;
  for (auto* sf : m.endpoints()) {
    if (sf->stats().bytes_acked > 0) ++active;
  }
  EXPECT_GE(active, 2);
}

TEST(Integration, DiscoveryConvergesBeforeTrafficInAllSchemes) {
  for (Scheme s : {Scheme::kCloveEcn, Scheme::kCloveInt, Scheme::kPresto}) {
    ExperimentConfig cfg = base_cfg(s);
    Testbed tb(cfg);
    tb.start_discovery();
    tb.simulator().run(cfg.traffic_start);
    const overlay::PathSet* ps =
        tb.clients()[0]->discovery().paths(tb.servers()[0]->ip());
    ASSERT_NE(ps, nullptr) << harness::scheme_name(s);
    EXPECT_EQ(ps->size(), 4u) << harness::scheme_name(s);
  }
}

TEST(Integration, SchemeNamesRoundTrip) {
  EXPECT_EQ(harness::scheme_name(Scheme::kCloveEcn), "Clove-ECN");
  EXPECT_TRUE(harness::scheme_is_edge_based(Scheme::kPresto));
  EXPECT_FALSE(harness::scheme_is_edge_based(Scheme::kConga));
}

TEST(Integration, CongaRunsEndToEnd) {
  workload::ClientServerConfig wl;
  wl.jobs_per_conn = 5;
  wl.conns_per_client = 1;
  wl.load = 0.5;
  wl.sizes = workload::FlowSizeDistribution::fixed(500'000);
  auto r = harness::run_fct_experiment(base_cfg(Scheme::kConga), wl);
  EXPECT_EQ(r.jobs, 4u * 5u);
}

TEST(Integration, LetFlowRunsEndToEnd) {
  workload::ClientServerConfig wl;
  wl.jobs_per_conn = 5;
  wl.conns_per_client = 1;
  wl.load = 0.5;
  wl.sizes = workload::FlowSizeDistribution::fixed(500'000);
  auto r = harness::run_fct_experiment(base_cfg(Scheme::kLetFlow), wl);
  EXPECT_EQ(r.jobs, 4u * 5u);
}

TEST(Integration, FixedSeedRunsAreBitIdentical) {
  // Repeatability contract for the forwarding fast path: the cached wire
  // hash, FlatMap flow tables with amortized expiry, and the single-wake
  // link pipeline must not introduce any run-order or value nondeterminism.
  // Two full Clove-ECN experiments at the same seed must agree exactly —
  // doubles compared bit-for-bit, not within tolerance.
  workload::ClientServerConfig wl;
  wl.jobs_per_conn = 4;
  wl.conns_per_client = 2;
  wl.load = 0.6;
  wl.sizes = workload::FlowSizeDistribution::fixed(200'000);

  auto fingerprint = [&wl] {
    ExperimentConfig cfg = base_cfg(Scheme::kCloveEcn);
    cfg.seed = 42;
    return harness::run_fct_experiment(cfg, wl);
  };
  const auto a = fingerprint();
  const auto b = fingerprint();
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(a.avg_fct_s, b.avg_fct_s);
  EXPECT_EQ(a.p99_fct_s, b.p99_fct_s);
  EXPECT_EQ(a.mice_avg_fct_s, b.mice_avg_fct_s);
  EXPECT_EQ(a.elephant_avg_fct_s, b.elephant_avg_fct_s);
}

}  // namespace
}  // namespace clove
