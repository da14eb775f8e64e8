// Tests for telemetry metrics: one row per (name, labels), histogram
// percentile accuracy against the exact stats::Samples, snapshot lookup,
// ordering and export, and the hub alias's run-to-run behaviour.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "stats/stats.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/metrics.hpp"
#include "test_util.hpp"

namespace clove::telemetry {
namespace {

MetricSample counter(std::string name, Labels labels, double value) {
  MetricSample s;
  s.name = std::move(name);
  s.labels = std::move(labels);
  s.value = value;
  return s;
}

// collect_metrics is the registry of a run's rows: a (name, labels) pair is
// one cell however many components report into it. Parallel connections
// between two nodes share a link name, so they land in the same cell.
void send_packets(net::Link* link, int packets) {
  for (int i = 0; i < packets; ++i) {
    link->enqueue(testutil::make_data(testutil::tuple(10, 1), 0, 1000));
  }
}

TEST(MetricsRegistry, SameNameSameLabelsSharesCell) {
  sim::Simulator sim;
  net::Topology topo(sim);
  net::Node* a = topo.add_host<testutil::SinkNode>("A");
  net::Node* b = topo.add_host<testutil::SinkNode>("B");
  net::Link* ab0 = topo.connect(a, b, {}).first;
  net::Link* ab1 = topo.connect(a, b, {}).first;
  ASSERT_EQ(ab0->name(), ab1->name());
  send_packets(ab0, 2);
  send_packets(ab1, 1);
  sim.run();
  const MetricsSnapshot snap = harness::collect_metrics({.topology = &topo});
  const MetricSample* m = snap.find("link.tx_packets", {{"link", "A->B"}});
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->value, 3.0);
  int rows = 0;
  for (const MetricSample& s : snap.samples) {
    if (s.name == "link.tx_packets") ++rows;
  }
  EXPECT_EQ(rows, 2);  // A->B and B->A
}

TEST(MetricsRegistry, DistinctLabelsDistinctCells) {
  sim::Simulator sim;
  net::Topology topo(sim);
  net::Node* a = topo.add_host<testutil::SinkNode>("A");
  net::Node* b = topo.add_host<testutil::SinkNode>("B");
  net::Node* c = topo.add_host<testutil::SinkNode>("C");
  send_packets(topo.connect(a, b, {}).first, 2);
  send_packets(topo.connect(a, c, {}).first, 1);
  sim.run();
  const MetricsSnapshot snap = harness::collect_metrics({.topology = &topo});
  const MetricSample* ab = snap.find("link.tx_packets", {{"link", "A->B"}});
  const MetricSample* ac = snap.find("link.tx_packets", {{"link", "A->C"}});
  ASSERT_NE(ab, nullptr);
  ASSERT_NE(ac, nullptr);
  EXPECT_NE(ab, ac);
  EXPECT_EQ(ab->value, 2.0);
  EXPECT_EQ(ac->value, 1.0);
  EXPECT_EQ(snap.find("link.tx_packets"), nullptr);  // no unlabeled cell
  EXPECT_DOUBLE_EQ(snap.sum_over("link.tx_packets"), 3.0);
}

TEST(MetricsSnapshot, FindCanonicalizesLabelOrder) {
  MetricsSnapshot snap;
  snap.samples.push_back(counter("pkts", {{"a", "1"}, {"b", "2"}}, 1));
  const MetricSample* a = snap.find("pkts", {{"b", "2"}, {"a", "1"}});
  const MetricSample* b = snap.find("pkts", {{"a", "1"}, {"b", "2"}});
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
}

TEST(Histogram, ExactStatsAreExact) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0}) h.observe(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.observe(123.0);
  EXPECT_DOUBLE_EQ(h.min(), 123.0);
  EXPECT_DOUBLE_EQ(h.max(), 123.0);
  // The one observation bounds every percentile.
  EXPECT_NEAR(h.percentile(50), 123.0, 123.0 * 0.1);
}

TEST(Histogram, PercentilesTrackExactSamples) {
  // The log-bucketed estimate must stay within the bucket's relative width
  // (~9% at 8 sub-buckets/octave) of the exact order statistic, across a
  // few distributions spanning several orders of magnitude.
  std::mt19937_64 rng(7);
  std::vector<std::vector<double>> datasets;
  {
    std::uniform_real_distribution<double> u(1.0, 1000.0);
    std::vector<double> d;
    for (int i = 0; i < 20000; ++i) d.push_back(u(rng));
    datasets.push_back(std::move(d));
  }
  {
    std::lognormal_distribution<double> ln(3.0, 1.5);
    std::vector<double> d;
    for (int i = 0; i < 20000; ++i) d.push_back(ln(rng));
    datasets.push_back(std::move(d));
  }
  {
    std::exponential_distribution<double> ex(1e-3);
    std::vector<double> d;
    for (int i = 0; i < 20000; ++i) d.push_back(ex(rng) + 1e-6);
    datasets.push_back(std::move(d));
  }

  for (const auto& data : datasets) {
    Histogram h;
    stats::Samples exact;
    for (double v : data) {
      h.observe(v);
      exact.add(v);
    }
    for (double p : {10.0, 50.0, 90.0, 99.0}) {
      const double want = exact.percentile(p);
      const double got = h.percentile(p);
      EXPECT_NEAR(got, want, want * 0.10)
          << "p" << p << " over " << data.size() << " samples";
    }
  }
}

TEST(Histogram, NonpositiveValuesCountedNotBucketed) {
  Histogram h;
  h.observe(0.0);
  h.observe(-5.0);
  h.observe(10.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  // Low percentiles resolve to the nonpositive mass (clamped by min).
  EXPECT_LE(h.percentile(10), 0.0);
}

TEST(MetricsSnapshot, FindValueAndSum) {
  MetricsSnapshot snap;
  snap.samples = {
      counter("depth", {}, 9),
      counter("drops", {{"link", "a"}}, 3),
      counter("drops", {{"link", "b"}}, 4),
  };

  const MetricSample* s = snap.find("drops", {{"link", "b"}});
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->value, 4.0);
  EXPECT_EQ(snap.find("drops"), nullptr);  // no unlabeled variant
  EXPECT_DOUBLE_EQ(snap.value_or("depth", -1.0), 9.0);
  EXPECT_DOUBLE_EQ(snap.value_or("nope", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(snap.sum_over("drops"), 7.0);
}

TEST(MetricsSnapshot, DeterministicOrderAndJson) {
  // collect_metrics sorts its rows by (name, labels) whatever order it reads
  // the sources in; the JSON export keeps that order and round-trips.
  harness::Testbed tb(harness::make_testbed_profile());
  transport::TcpSenderStats tcp;
  tcp.timeouts = 3;
  Histogram rtt;
  rtt.observe(2.0);
  const MetricsSnapshot snap = harness::collect_metrics(
      {.topology = &tb.topology(), .transport = &tcp, .rtt_us = &rtt});
  ASSERT_GT(snap.samples.size(), 4u);
  std::size_t timeouts = 0;
  std::size_t hist = 0;
  for (std::size_t i = 0; i < snap.samples.size(); ++i) {
    const MetricSample& m = snap.samples[i];
    if (i > 0) {
      const MetricSample& prev = snap.samples[i - 1];
      EXPECT_LT(std::tie(prev.name, prev.labels), std::tie(m.name, m.labels));
    }
    if (m.name == "tcp.timeouts") timeouts = i;
    if (m.name == "tcp.rtt_us") hist = i;
  }
  EXPECT_EQ(snap.samples[0].name, "hyp.ce_intercepted");

  Json j = snap.to_json();
  ASSERT_EQ(j.size(), snap.samples.size());
  EXPECT_EQ(j[0]["labels"]["host"].as_string(), snap.samples[0].labels[0].second);
  EXPECT_EQ(j[timeouts]["type"].as_string(), "counter");
  EXPECT_DOUBLE_EQ(j[timeouts]["value"].as_number(), 3.0);
  EXPECT_EQ(j[hist]["type"].as_string(), "histogram");
  EXPECT_DOUBLE_EQ(j[hist]["count"].as_number(), 1.0);
  // The export parses back (artifact consumers round-trip it).
  std::string err;
  Json back = Json::parse(j.dump(2), &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(back.size(), snap.samples.size());
}

TEST(Hub, BeginRunZeroesWithoutInvalidating) {
  Scope& h = hub();
  const bool was = h.is_enabled();
  h.set_enabled(true);
  TraceLog& ring = h.trace();
  trace(Category::kQueue, 10, "n", "e");
  EXPECT_GE(ring.size(), 1u);
  h.begin_run();
  EXPECT_EQ(ring.size(), 0u);
  if (telemetry::enabled()) trace(Category::kQueue, 11, "n", "e");
  EXPECT_EQ(h.trace().size(), 1u);  // the same ring, recording again
  h.set_enabled(was);
  h.begin_run();
}

TEST(Hub, DisabledGuardSkipsRecording) {
  Scope& h = hub();
  const bool was = h.is_enabled();
  h.set_enabled(false);
  h.begin_run();
  EXPECT_FALSE(telemetry::enabled());
  trace(Category::kQueue, 10, "n", "e");  // dropped: hub disabled
  EXPECT_EQ(h.trace().size(), 0u);
  h.set_enabled(was);
}

}  // namespace
}  // namespace clove::telemetry
