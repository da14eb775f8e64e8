// Tests for the congestion-aware Clove policies: Clove-ECN's weight
// adaptation loop, and the least-signal rule of Clove-INT and Clove-Latency.

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <ostream>
#include <set>

#include "lb/clove_ecn.hpp"
#include "lb/ecmp.hpp"
#include "lb/edge_flowlet.hpp"
#include "lb/least_signal.hpp"
#include "lb/presto.hpp"
#include "test_util.hpp"

namespace clove::lb {
namespace {

using clove::testutil::make_data;
using clove::testutil::tuple;
using sim::kMicrosecond;

overlay::PathSet four_paths(std::uint16_t base_port = 50000) {
  overlay::PathSet ps;
  for (std::uint16_t i = 0; i < 4; ++i) {
    overlay::PathInfo p;
    p.port = static_cast<std::uint16_t>(base_port + i);
    p.hops = {{10, 0},
              {static_cast<net::IpAddr>(20 + i / 2), static_cast<int>(i % 2)},
              {11, static_cast<int>(i % 2)},
              {2, 0}};
    ps.paths.push_back(p);
  }
  ps.discovered_at = 0;
  return ps;
}

net::CloveFeedback ecn_fb(std::uint16_t port) {
  net::CloveFeedback fb;
  fb.present = true;
  fb.port = port;
  fb.ecn_set = true;
  return fb;
}

net::CloveFeedback util_fb(std::uint16_t port, double util) {
  net::CloveFeedback fb;
  fb.present = true;
  fb.port = port;
  fb.has_util = true;
  fb.util = util;
  return fb;
}

CloveEcnConfig slow_recovery() {
  CloveEcnConfig c;
  c.recovery_interval = sim::seconds(100.0);  // effectively off for the test
  return c;
}

// ---------------------------------------------------------------------------
// Clove-ECN
// ---------------------------------------------------------------------------

TEST(CloveEcn, StartsUniform) {
  CloveEcnPolicy p(slow_recovery());
  p.on_paths_updated(2, four_paths());
  auto w = p.weights(2);
  ASSERT_EQ(w.size(), 4u);
  for (double x : w) EXPECT_NEAR(x, 0.25, 1e-9);
}

TEST(CloveEcn, WantsSignals) {
  CloveEcnPolicy p;
  EXPECT_TRUE(p.wants_ect());
  EXPECT_FALSE(p.wants_int());
  EXPECT_TRUE(p.needs_discovery());
  EXPECT_EQ(p.name(), "clove-ecn");
}

TEST(CloveEcn, FeedbackReducesWeightByThird) {
  CloveEcnPolicy p(slow_recovery());
  p.on_paths_updated(2, four_paths());
  p.on_feedback(2, ecn_fb(50000), 0);
  auto w = p.weights(2);
  // 0.25 - 0.25/3 on the congested path; the removed mass spread over the
  // other three uncongested paths.
  EXPECT_NEAR(w[0], 0.25 * 2 / 3, 1e-9);
  for (int i = 1; i < 4; ++i) EXPECT_NEAR(w[i], 0.25 + 0.25 / 9, 1e-9);
  EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 1.0, 1e-9);
}

TEST(CloveEcn, RepeatedFeedbackKeepsWeightAboveFloor) {
  CloveEcnPolicy p(slow_recovery());
  p.on_paths_updated(2, four_paths());
  for (int i = 0; i < 100; ++i) {
    p.on_feedback(2, ecn_fb(50000), i * 300 * kMicrosecond);
  }
  auto w = p.weights(2);
  EXPECT_GE(w[0], p.config().min_weight - 1e-12);
  EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 1.0, 1e-9);
}

TEST(CloveEcn, WeightMassGoesOnlyToUncongestedPaths) {
  CloveEcnPolicy p(slow_recovery());
  p.on_paths_updated(2, four_paths());
  // Paths 0 and 1 congested back to back (within the expiry window).
  p.on_feedback(2, ecn_fb(50000), 0);
  p.on_feedback(2, ecn_fb(50001), 10 * kMicrosecond);
  auto w = p.weights(2);
  // Path 0's reduction spread over {1,2,3}; path 1's over {2,3} only.
  EXPECT_LT(w[0], 0.25);
  EXPECT_LT(w[1], 0.25 + 0.25 / 9);
  EXPECT_GT(w[2], 0.25 + 0.25 / 9);
  EXPECT_NEAR(w[2], w[3], 1e-9);
}

TEST(CloveEcn, AllPathsCongestedDetection) {
  CloveEcnPolicy p(slow_recovery());
  p.on_paths_updated(2, four_paths());
  EXPECT_FALSE(p.all_paths_congested(2, 0));
  sim::Time t = 0;
  for (std::uint16_t i = 0; i < 4; ++i) {
    p.on_feedback(2, ecn_fb(static_cast<std::uint16_t>(50000 + i)), t);
  }
  EXPECT_TRUE(p.all_paths_congested(2, t));
  // Congestion state expires.
  EXPECT_FALSE(p.all_paths_congested(2, t + p.config().congestion_expiry +
                                            kMicrosecond));
}

TEST(CloveEcn, WrrFollowsWeights) {
  CloveEcnPolicy p(slow_recovery());
  p.on_paths_updated(2, four_paths());
  // Congest path 0 heavily.
  for (int i = 0; i < 10; ++i) {
    p.on_feedback(2, ecn_fb(50000), i * 300 * kMicrosecond);
  }
  auto w = p.weights(2);
  // Route many flowlets (distinct flows => each pick is a new flowlet).
  std::map<std::uint16_t, int> counts;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    auto pkt =
        make_data(tuple(1, 2, static_cast<std::uint16_t>(1000 + i)), 0, 100);
    ++counts[p.pick_port(*pkt, 2, sim::seconds(0.01))];
  }
  // Note: picking happens after recovery-less weights settle; the share of
  // path 0 must be close to its (tiny) weight.
  const double share0 = static_cast<double>(counts[50000]) / n;
  EXPECT_LT(share0, w[0] + 0.05);
  EXPECT_GT(counts[50001], n / 5);
}

TEST(CloveEcn, FlowletStickiness) {
  CloveEcnPolicy p(slow_recovery());
  p.on_paths_updated(2, four_paths());
  auto pkt = make_data(tuple(1, 2), 0, 100);
  const auto port = p.pick_port(*pkt, 2, 0);
  // Packets within the gap stay put even as weights change.
  p.on_feedback(2, ecn_fb(port), 10 * kMicrosecond);
  EXPECT_EQ(p.pick_port(*pkt, 2, 50 * kMicrosecond), port);
  // After a gap the flowlet may move (WRR decides; just must be valid).
  const auto port2 = p.pick_port(*pkt, 2, sim::seconds(1.0));
  EXPECT_GE(port2, 50000);
  EXPECT_LE(port2, 50003);
}

TEST(CloveEcn, FallbackBeforeDiscovery) {
  CloveEcnPolicy p;
  auto pkt = make_data(tuple(1, 2), 0, 100);
  const auto port = p.pick_port(*pkt, 2, 0);
  EXPECT_EQ(p.pick_port(*pkt, 2, 1), port);  // stable within flowlet
}

TEST(CloveEcn, RecoveryDriftsTowardUniform) {
  CloveEcnConfig cfg;
  cfg.recovery_interval = 1 * sim::kMillisecond;
  cfg.recovery_rate = 0.2;
  CloveEcnPolicy p(cfg);
  p.on_paths_updated(2, four_paths());
  for (int i = 0; i < 6; ++i) {
    p.on_feedback(2, ecn_fb(50000), i * 300 * kMicrosecond);
  }
  const double w_before = p.weights(2)[0];
  ASSERT_LT(w_before, 0.1);
  // Long quiet period, then touch the policy so lazy recovery applies.
  auto pkt = make_data(tuple(9, 2), 0, 100);
  p.pick_port(*pkt, 2, sim::seconds(0.5));
  const double w_after = p.weights(2)[0];
  EXPECT_GT(w_after, 0.2);  // drifted most of the way back to 0.25
}

TEST(CloveEcn, StateCarriesAcrossRemapBySignature) {
  CloveEcnPolicy p(slow_recovery());
  p.on_paths_updated(2, four_paths(50000));
  for (int i = 0; i < 6; ++i) {
    p.on_feedback(2, ecn_fb(50000), i * 300 * kMicrosecond);
  }
  const double depressed = p.weights(2)[0];
  ASSERT_LT(depressed, 0.1);
  // Rediscovery maps the same physical paths to brand-new ports.
  p.on_paths_updated(2, four_paths(60000));
  auto w = p.weights(2);
  EXPECT_NEAR(w[0], depressed, 0.02);  // learned weight survived the remap
}

TEST(CloveEcn, FeedbackForUnknownPortIgnored) {
  CloveEcnPolicy p(slow_recovery());
  p.on_paths_updated(2, four_paths());
  p.on_feedback(2, ecn_fb(12345), 0);
  auto w = p.weights(2);
  for (double x : w) EXPECT_NEAR(x, 0.25, 1e-9);
}

// ---------------------------------------------------------------------------
// Least-signal policy: the same rule over both signals
// ---------------------------------------------------------------------------

net::CloveFeedback latency_fb(std::uint16_t port, sim::Time latency) {
  net::CloveFeedback fb;
  fb.present = true;
  fb.port = port;
  fb.has_latency = true;
  fb.latency = latency;
  return fb;
}

/// One signal under test: feedback at `level` in [0, 1] for a path reads
/// back as `level * unit` in the policy's metric.
struct SignalCase {
  const LeastSignal* signal;
  double unit;
  net::CloveFeedback (*feedback)(std::uint16_t port, double level);
};

void PrintTo(const SignalCase& c, std::ostream* os) { *os << c.signal->name; }

const SignalCase kUtilCase{&kIntUtilization, 1.0, &util_fb};
const SignalCase kLatencyCase{
    &kPathLatency, 1000.0, [](std::uint16_t port, double level) {
      return latency_fb(port, static_cast<sim::Time>(level * 1000.0 + 0.5) *
                                  kMicrosecond);
    }};

class LeastSignalTest : public ::testing::TestWithParam<SignalCase> {
 protected:
  LeastSignalPolicy make() const { return LeastSignalPolicy(*GetParam().signal); }
  net::CloveFeedback fb(std::uint16_t port, double level) const {
    return GetParam().feedback(port, level);
  }
  double unit() const { return GetParam().unit; }
};

TEST_P(LeastSignalTest, RoutesToLeastSignalPath) {
  auto p = make();
  p.on_paths_updated(2, four_paths());
  const sim::Time t = 100 * kMicrosecond;
  p.on_feedback(2, fb(50000, 0.9), t);
  p.on_feedback(2, fb(50001, 0.7), t);
  p.on_feedback(2, fb(50002, 0.1), t);
  p.on_feedback(2, fb(50003, 0.5), t);
  // Every new flowlet goes to the 0.1 path.
  for (int i = 0; i < 10; ++i) {
    auto pkt =
        make_data(tuple(1, 2, static_cast<std::uint16_t>(3000 + i)), 0, 100);
    PickInfo info;
    EXPECT_EQ(p.pick_port(*pkt, 2, t + 1, &info), 50002);
    EXPECT_STREQ(info.reason, GetParam().signal->reason);
    EXPECT_NEAR(info.metric, 0.1 * unit(), 1e-9);
  }
}

TEST_P(LeastSignalTest, StaleSignalExpires) {
  auto p = make();
  p.on_paths_updated(2, four_paths());
  p.on_feedback(2, fb(50000, 0.9), 0);
  EXPECT_NEAR(p.signals(2, LeastSignalPolicy::kExpiry)[0], 0.9 * unit(), 1e-9);
  // Expired: treated as unknown/idle.
  EXPECT_DOUBLE_EQ(p.signals(2, 2 * sim::kMillisecond)[0], 0.0);
}

TEST_P(LeastSignalTest, EwmaSmoothsSamples) {
  auto p = make();
  p.on_paths_updated(2, four_paths());
  p.on_feedback(2, fb(50000, 1.0), 0);
  p.on_feedback(2, fb(50000, 0.0), 1);
  EXPECT_NEAR(p.signals(2, 2)[0], 0.5 * unit(), 1e-9);
}

TEST_P(LeastSignalTest, TieBreaksSpreadAcrossIdlePaths) {
  auto p = make();
  p.on_paths_updated(2, four_paths());
  std::set<std::uint16_t> picked;
  for (int i = 0; i < 64; ++i) {
    auto pkt =
        make_data(tuple(1, 2, static_cast<std::uint16_t>(4000 + i)), 0, 100);
    picked.insert(p.pick_port(*pkt, 2, 0));
  }
  EXPECT_EQ(picked.size(), 4u);  // all-idle => random ties cover all paths
}

TEST_P(LeastSignalTest, FlowletStickiness) {
  auto p = make();
  p.on_paths_updated(2, four_paths());
  auto pkt = make_data(tuple(1, 2), 0, 100);
  const auto port = p.pick_port(*pkt, 2, 0);
  p.on_feedback(2, fb(port, 1.0), 1);
  EXPECT_EQ(p.pick_port(*pkt, 2, 10 * kMicrosecond), port);
}

TEST_P(LeastSignalTest, SignalCarriesAcrossRemapBySignature) {
  auto p = make();
  p.on_paths_updated(2, four_paths(50000));
  p.on_feedback(2, fb(50000, 0.9), 0);
  p.on_paths_updated(2, four_paths(60000));
  EXPECT_NEAR(p.signals(2, 1)[0], 0.9 * unit(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Signals, LeastSignalTest, ::testing::Values(kUtilCase, kLatencyCase),
    [](const ::testing::TestParamInfo<SignalCase>& i) {
      return i.param.signal == &kIntUtilization ? "clove_int" : "clove_latency";
    });

TEST(CloveInt, WantsIntTelemetry) {
  LeastSignalPolicy p(kIntUtilization);
  EXPECT_TRUE(p.wants_int());
  EXPECT_TRUE(p.wants_ect());
  EXPECT_TRUE(p.needs_discovery());
  EXPECT_EQ(p.name(), "clove-int");
}

// Realistic one-way delays: the relayed sim::Time is read in microseconds.
TEST(CloveLatency, RoutesToLowestLatencyPath) {
  LeastSignalPolicy p(kPathLatency);
  p.on_paths_updated(2, four_paths());
  const sim::Time t = 10 * kMicrosecond;
  p.on_feedback(2, latency_fb(50000, 900 * kMicrosecond), t);
  p.on_feedback(2, latency_fb(50001, 50 * kMicrosecond), t);
  p.on_feedback(2, latency_fb(50002, 500 * kMicrosecond), t);
  p.on_feedback(2, latency_fb(50003, 700 * kMicrosecond), t);
  EXPECT_EQ(p.signals(2, t), (std::vector<double>{900.0, 50.0, 500.0, 700.0}));
  for (int i = 0; i < 5; ++i) {
    auto pkt =
        make_data(tuple(1, 2, static_cast<std::uint16_t>(5000 + i)), 0, 100);
    EXPECT_EQ(p.pick_port(*pkt, 2, t + 1), 50001);
  }
}

TEST(CloveLatency, NeedsDiscoveryOnly) {
  LeastSignalPolicy p(kPathLatency);
  EXPECT_TRUE(p.needs_discovery());
  EXPECT_FALSE(p.wants_int());
  EXPECT_FALSE(p.wants_ect());
  EXPECT_EQ(p.name(), "clove-latency");
}

// ---------------------------------------------------------------------------
// Hashed ports before discovery, pinned per scheme
// ---------------------------------------------------------------------------

// Each scheme salts the shared port hash differently; a slipped salt moves
// these ports. Picks at 0 and 10 us share flowlet 1, the pick at 1 ms (past
// the 100 us gap) is flowlet 2; ECMP and Presto hash per flow.
TEST(FallbackPort, PinnedPerSchemeBeforeDiscovery) {
  EcmpPolicy ecmp;
  PrestoPolicy presto;
  EdgeFlowletPolicy edge;
  CloveEcnPolicy ecn;
  LeastSignalPolicy util(kIntUtilization);
  LeastSignalPolicy latency(kPathLatency);
  const std::map<std::string, std::pair<Policy*, std::vector<std::uint16_t>>>
      cases{{"ecmp", {&ecmp, {56502, 56502, 56502}}},
            {"presto", {&presto, {62656, 62656, 62656}}},
            {"edge-flowlet", {&edge, {51331, 51331, 61550}}},
            {"clove-ecn", {&ecn, {58111, 58111, 61197}}},
            {"clove-int", {&util, {65099, 65099, 64368}}},
            {"clove-latency", {&latency, {52663, 52663, 49173}}}};
  auto pkt = make_data(tuple(1, 2, 1234, 80), 0, 100);
  for (const auto& [name, c] : cases) {
    Policy* p = c.first;
    ASSERT_EQ(p->name(), name);
    std::vector<std::uint16_t> ports;
    for (sim::Time at : {sim::Time{0}, 10 * kMicrosecond, sim::kMillisecond}) {
      ports.push_back(p->pick_port(*pkt, 2, at));
    }
    EXPECT_EQ(ports, c.second) << name;
  }
}

}  // namespace
}  // namespace clove::lb
