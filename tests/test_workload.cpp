// Tests for the workload generators: flow-size distributions, the
// client-server job workload and the incast generator.

#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "sim/random.hpp"
#include "workload/client_server.hpp"
#include "workload/flow_size.hpp"

namespace clove::workload {
namespace {

TEST(FlowSizeDistribution, SamplesWithinSupport) {
  auto d = FlowSizeDistribution::web_search();
  sim::Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const auto s = d.sample(rng);
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, 30'000'000u);
  }
}

TEST(FlowSizeDistribution, EmpiricalMeanMatchesAnalytic) {
  auto d = FlowSizeDistribution::web_search();
  sim::Rng rng(7);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(d.sample(rng));
  EXPECT_NEAR(sum / n / d.mean_bytes(), 1.0, 0.05);
}

TEST(FlowSizeDistribution, WebSearchIsLongTailed) {
  auto d = FlowSizeDistribution::web_search();
  sim::Rng rng(11);
  int mice = 0, elephants = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const auto s = d.sample(rng);
    if (s < 100'000) ++mice;
    if (s > 10'000'000) ++elephants;
  }
  // ~55% of flows under 100KB; a few percent above 10MB.
  EXPECT_GT(mice, n / 2);
  EXPECT_GT(elephants, n / 100);
  EXPECT_LT(elephants, n / 10);
}

TEST(FlowSizeDistribution, QuantilesMatchCdfPoints) {
  auto d = FlowSizeDistribution::web_search();
  sim::Rng rng(13);
  std::vector<double> samples;
  for (int i = 0; i < 100000; ++i) {
    samples.push_back(static_cast<double>(d.sample(rng)));
  }
  std::sort(samples.begin(), samples.end());
  // CDF point: P(size <= 80KB) = 0.53.
  const auto it = std::lower_bound(samples.begin(), samples.end(), 80'000.0);
  const double frac =
      static_cast<double>(it - samples.begin()) / samples.size();
  EXPECT_NEAR(frac, 0.53, 0.02);
}

TEST(FlowSizeDistribution, FixedAlwaysSame) {
  auto d = FlowSizeDistribution::fixed(5000);
  sim::Rng rng(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(d.sample(rng), 5000u);
  EXPECT_NEAR(d.mean_bytes(), 5000.0, 1.0);
}

TEST(FlowSizeDistribution, DataMiningHeavierTail) {
  const auto ws = FlowSizeDistribution::web_search();
  const auto dm = FlowSizeDistribution::data_mining();
  EXPECT_GT(dm.mean_bytes(), ws.mean_bytes());
}

// ---------------------------------------------------------------------------
// Client-server workload (driven through the full harness testbed)
// ---------------------------------------------------------------------------

harness::ExperimentConfig small_cfg(harness::Scheme s) {
  harness::ExperimentConfig cfg = harness::make_ns2_profile();
  cfg.scheme = s;
  cfg.topo.hosts_per_leaf = 4;
  cfg.discovery.probe_timeout = 5 * sim::kMillisecond;
  cfg.traffic_start = 15 * sim::kMillisecond;
  return cfg;
}

workload::ClientServerConfig small_wl() {
  workload::ClientServerConfig wl;
  wl.jobs_per_conn = 5;
  wl.conns_per_client = 1;
  wl.load = 0.4;
  wl.sizes = FlowSizeDistribution::fixed(200'000);
  return wl;
}

TEST(ClientServerWorkload, AllJobsComplete) {
  auto r = harness::run_fct_experiment(small_cfg(harness::Scheme::kEcmp),
                                       small_wl());
  EXPECT_EQ(r.jobs, 4u * 5u);
  EXPECT_GT(r.avg_fct_s, 0.0);
}

TEST(ClientServerWorkload, FctIncludesQueueingDelay) {
  // At very high offered load on a fixed-size workload, average job
  // completion must exceed the no-queueing transfer time substantially.
  auto wl = small_wl();
  wl.load = 0.3;
  auto r_low = harness::run_fct_experiment(small_cfg(harness::Scheme::kEcmp), wl);
  wl.load = 1.2;  // overdriven
  auto r_high =
      harness::run_fct_experiment(small_cfg(harness::Scheme::kEcmp), wl);
  EXPECT_GT(r_high.avg_fct_s, r_low.avg_fct_s);
}

TEST(ClientServerWorkload, OfferedBytesTrackLoad) {
  harness::Testbed tb(small_cfg(harness::Scheme::kEcmp));
  auto wl = small_wl();
  wl.jobs_per_conn = 50;
  workload::ClientServerWorkload ws(tb.simulator(), wl, tb.clients(),
                                    tb.servers());
  ws.start();
  EXPECT_EQ(ws.jobs_total(), 4u * 50u);
  EXPECT_GT(ws.bytes_offered(), 0u);
}

TEST(ClientServerWorkload, DeterministicForSeed) {
  auto cfg = small_cfg(harness::Scheme::kCloveEcn);
  auto r1 = harness::run_fct_experiment(cfg, small_wl());
  auto r2 = harness::run_fct_experiment(cfg, small_wl());
  EXPECT_DOUBLE_EQ(r1.avg_fct_s, r2.avg_fct_s);
  EXPECT_EQ(r1.events, r2.events);
}

TEST(ClientServerWorkload, SeedChangesOutcome) {
  auto cfg = small_cfg(harness::Scheme::kCloveEcn);
  auto r1 = harness::run_fct_experiment(cfg, small_wl());
  cfg.seed = 99;
  auto r2 = harness::run_fct_experiment(cfg, small_wl());
  EXPECT_NE(r1.events, r2.events);
}

// ---------------------------------------------------------------------------
// Incast workload
// ---------------------------------------------------------------------------

TEST(IncastWorkload, CompletesAndMeasuresGoodput) {
  auto cfg = small_cfg(harness::Scheme::kCloveEcn);
  workload::IncastConfig ic;
  ic.fanout = 4;
  ic.total_bytes = 1'000'000;
  ic.requests = 3;
  const double gbps = harness::run_incast_experiment(cfg, ic);
  // Bounded by the 10G access link, above zero if it ran at all.
  EXPECT_GT(gbps, 0.5);
  EXPECT_LT(gbps, 10.1);
}

TEST(IncastWorkload, FanoutOneIsNearLineRate) {
  auto cfg = small_cfg(harness::Scheme::kEcmp);
  workload::IncastConfig ic;
  ic.fanout = 1;
  ic.total_bytes = 4'000'000;
  ic.requests = 3;
  const double gbps = harness::run_incast_experiment(cfg, ic);
  EXPECT_GT(gbps, 3.0);  // a single TCP stream with shallow buffers
}

TEST(IncastWorkload, RequestsAreSequential) {
  harness::Testbed tb(small_cfg(harness::Scheme::kEcmp));
  tb.start_discovery();
  workload::IncastConfig ic;
  ic.fanout = 2;
  ic.total_bytes = 100'000;
  ic.requests = 5;
  workload::IncastWorkload incast(tb.simulator(), ic, tb.clients()[0],
                                  tb.servers());
  incast.start([&] { tb.simulator().stop(); });
  tb.simulator().run(sim::seconds(60.0));
  EXPECT_EQ(incast.requests_done(), 5);
  EXPECT_EQ(incast.request_durations().count(), 5u);
}

}  // namespace
}  // namespace clove::workload
