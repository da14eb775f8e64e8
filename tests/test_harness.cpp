// Tests for the experiment harness: scheme wiring, testbed construction on
// the leaf-spine and the fat-tree, config validation, profiles, env-based
// scaling, and end-to-end behaviour of the composed schemes (Presto
// reassembly, DCTCP option, CONGA fabric wiring).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>

#include "fault/fault.hpp"
#include "harness/experiment.hpp"
#include "lb/presto.hpp"
#include "net/conga_switch.hpp"
#include "telemetry/scope.hpp"
#include "workload/client_server.hpp"

namespace clove::harness {
namespace {

ExperimentConfig small(Scheme s) {
  ExperimentConfig cfg = make_ns2_profile();
  cfg.scheme = s;
  cfg.topo.hosts_per_leaf = 4;
  cfg.discovery.probe_timeout = 5 * sim::kMillisecond;
  cfg.traffic_start = 15 * sim::kMillisecond;
  return cfg;
}

TEST(Harness, TestbedBuildsPaperTopology) {
  Testbed tb(small(Scheme::kCloveEcn));
  EXPECT_EQ(tb.clients().size(), 4u);
  EXPECT_EQ(tb.servers().size(), 4u);
  EXPECT_EQ(tb.fabric().leaves.size(), 2u);
  EXPECT_EQ(tb.fabric().spines.size(), 2u);
}

TEST(Harness, SchemePoliciesWiredCorrectly) {
  struct Case {
    Scheme s;
    std::string policy_name;
  };
  for (const Case& c : std::initializer_list<Case>{
           {Scheme::kEcmp, "ecmp"},
           {Scheme::kEdgeFlowlet, "edge-flowlet"},
           {Scheme::kCloveEcn, "clove-ecn"},
           {Scheme::kCloveInt, "clove-int"},
           {Scheme::kCloveLatency, "clove-latency"},
           {Scheme::kPresto, "presto"},
           // MPTCP pairs with the migrate-on-evict ECMP edge so subflows
           // re-pin away from paths the health monitor declares dead.
           {Scheme::kMptcp, "ecmp-migrate"},
           {Scheme::kConga, "ecmp"},   // CONGA re-routes inside the fabric
           {Scheme::kLetFlow, "ecmp"}}) {
    Testbed tb(small(c.s));
    EXPECT_EQ(tb.clients()[0]->policy().name(), c.policy_name)
        << scheme_name(c.s);
  }
}

TEST(Harness, CongaLeavesConfigured) {
  Testbed tb(small(Scheme::kConga));
  auto* leaf = dynamic_cast<net::CongaLeafSwitch*>(tb.fabric().leaves[0]);
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->leaf_index(), 0);
}

TEST(Harness, PrestoGetsReorderBufferAndIdealWeights) {
  auto cfg = small(Scheme::kPresto);
  cfg.asymmetric = true;
  Testbed tb(cfg);
  EXPECT_TRUE(tb.clients()[0]->config().reorder_buffer);
  // Ideal static weights were installed: after discovery, S1 paths carry
  // twice the flowcells of S2 paths (verified indirectly via the policy's
  // pick distribution in test_policies.cpp; here we just ensure wiring).
  auto* presto = dynamic_cast<lb::PrestoPolicy*>(&tb.clients()[0]->policy());
  ASSERT_NE(presto, nullptr);
}

TEST(Harness, AsymmetricFailsExactlyOneLink) {
  auto cfg = small(Scheme::kEcmp);
  cfg.asymmetric = true;
  Testbed tb(cfg);
  int down = 0;
  for (const auto& l : tb.topology().links()) {
    if (l->is_down()) ++down;
  }
  EXPECT_EQ(down, 2);  // both directions of the S2-L2 connection
  tb.restore_s2_l2_link();
  down = 0;
  for (const auto& l : tb.topology().links()) {
    if (l->is_down()) ++down;
  }
  EXPECT_EQ(down, 0);
}

TEST(Harness, ProfilesDiffer) {
  const auto testbed = make_testbed_profile();
  const auto ns2 = make_ns2_profile();
  EXPECT_GT(testbed.tcp.min_rto, ns2.tcp.min_rto);
  EXPECT_TRUE(testbed.tcp.ecn);
}

TEST(Harness, BenchScaleReadsEnv) {
  setenv("CLOVE_JOBS", "7", 1);
  setenv("CLOVE_SEEDS", "3", 1);
  setenv("CLOVE_CONNS", "5", 1);
  auto s = BenchScale::from_env();
  EXPECT_EQ(s.jobs_per_conn, 7);
  EXPECT_EQ(s.seeds, 3);
  EXPECT_EQ(s.conns_per_client, 5);
  unsetenv("CLOVE_JOBS");
  unsetenv("CLOVE_SEEDS");
  unsetenv("CLOVE_CONNS");
  auto d = BenchScale::from_env();
  EXPECT_EQ(d.jobs_per_conn, 40);
  EXPECT_EQ(d.seeds, 1);
  EXPECT_EQ(d.conns_per_client, 2);
}

TEST(Harness, BenchScaleRejectsGarbage) {
  setenv("CLOVE_JOBS", "-3", 1);
  EXPECT_EQ(BenchScale::from_env().jobs_per_conn, 40);
  unsetenv("CLOVE_JOBS");
}

TEST(Harness, PrestoReassemblyPreventsSpuriousRetransmits) {
  // Presto sprays 64KB flowcells round-robin over 4 paths, which reorders
  // packets heavily; the receiving vswitch's reassembly must hide that from
  // the VM so fast retransmits stay rare. Compare against the same spraying
  // without the reorder buffer.
  workload::ClientServerConfig wl;
  wl.jobs_per_conn = 3;
  wl.conns_per_client = 1;
  wl.load = 0.3;
  wl.sizes = workload::FlowSizeDistribution::fixed(2'000'000);

  auto cfg = small(Scheme::kPresto);
  auto r = run_fct_experiment(cfg, wl);
  EXPECT_EQ(r.jobs, 4u * 3u);
  // Each 2MB job is ~1370 packets sprayed across 4 paths (~85 reordered
  // flowcell boundaries). With reassembly, fast retransmits stay rare —
  // a couple per job at most, instead of one per boundary.
  EXPECT_LE(r.fast_retransmits, 2u * r.jobs);
}

TEST(Harness, DctcpGuestOptionRuns) {
  // §7 "DCTCP": with a DCTCP guest stack the same harness still completes
  // (non-overlay mode so switch marks hit the inner header directly).
  auto cfg = small(Scheme::kCloveEcn);
  cfg.non_overlay = true;
  cfg.tcp.dctcp = true;
  workload::ClientServerConfig wl;
  wl.jobs_per_conn = 4;
  wl.conns_per_client = 1;
  wl.load = 0.5;
  wl.sizes = workload::FlowSizeDistribution::fixed(400'000);
  auto r = run_fct_experiment(cfg, wl);
  EXPECT_EQ(r.jobs, 4u * 4u);
}

TEST(Harness, NonOverlayCloveEcnCompletes) {
  auto cfg = small(Scheme::kCloveEcn);
  cfg.non_overlay = true;
  workload::ClientServerConfig wl;
  wl.jobs_per_conn = 4;
  wl.conns_per_client = 1;
  wl.load = 0.5;
  wl.sizes = workload::FlowSizeDistribution::fixed(400'000);
  auto r = run_fct_experiment(cfg, wl);
  EXPECT_EQ(r.jobs, 4u * 4u);
}

TEST(Harness, ResultCountersPopulated) {
  workload::ClientServerConfig wl;
  wl.jobs_per_conn = 20;
  wl.conns_per_client = 2;
  wl.load = 1.1;  // overdriven so queues must mark
  auto cfg = small(Scheme::kCloveEcn);
  cfg.topo.fabric_gbps = 10.0;  // scale fabric to the 4-host mini-testbed
  auto r = run_fct_experiment(cfg, wl);
  EXPECT_GT(r.events, 1000u);
  EXPECT_GT(r.ecn_marks, 0u);
  ASSERT_NE(r.fct, nullptr);
  EXPECT_EQ(r.fct->all().count(), r.jobs);
}

TEST(Harness, ExplicitWorkloadSeed42IsHonoured) {
  // 42 is ClientServerWorkload's own default; an explicit 42 must not be
  // mistaken for "unset" and swapped for the run-derived seed.
  const auto cfg = small(Scheme::kEcmp);
  workload::ClientServerConfig wl;
  wl.jobs_per_conn = 4;
  wl.conns_per_client = 1;
  wl.load = 0.5;
  wl.seed = 42;
  const ExperimentResult r = run_fct_experiment(cfg, wl);

  // The same run by hand, with the workload seeded 42.
  Testbed tb(cfg);
  tb.start_discovery();
  workload::ClientServerConfig hand = wl;
  hand.tcp = cfg.tcp;
  hand.mptcp = cfg.mptcp;
  hand.start_time = cfg.traffic_start;
  hand.bisection_bytes_per_sec = std::min(
      sim::gbps_to_bytes_per_sec(cfg.topo.fabric_gbps) * cfg.topo.n_spines *
          cfg.topo.links_per_pair,
      sim::gbps_to_bytes_per_sec(cfg.topo.host_gbps) * cfg.topo.hosts_per_leaf);
  workload::ClientServerWorkload ws(tb.simulator(), hand, tb.clients(),
                                    tb.servers());
  ws.start([&] { tb.simulator().stop(); });
  tb.simulator().run(cfg.max_sim_time);

  EXPECT_EQ(r.jobs, ws.jobs_done());
  EXPECT_EQ(r.events, tb.simulator().events_processed());
  EXPECT_EQ(r.avg_fct_s, ws.fct().all().mean());
  EXPECT_EQ(r.p99_fct_s, ws.fct().all().percentile(99));
}

TEST(Harness, WorkloadConfigDerivesOnlyWhatIsUnset) {
  auto cfg = small(Scheme::kMptcp);
  cfg.seed = 5;
  Testbed tb(cfg);
  workload::ClientServerConfig wl;
  const auto derived = tb.workload_config(wl);
  ASSERT_TRUE(derived.seed.has_value());
  EXPECT_EQ(*derived.seed, 5u * 977 + 3);
  EXPECT_TRUE(derived.use_mptcp);
  EXPECT_EQ(derived.start_time, cfg.traffic_start);
  // 4 hosts x 10G of access is below the 160G fabric cut.
  EXPECT_EQ(derived.bisection_bytes_per_sec, tb.bisection_bytes_per_sec());
  EXPECT_EQ(tb.bisection_bytes_per_sec(), 4 * sim::gbps_to_bytes_per_sec(10.0));
  wl.seed = 42;
  EXPECT_EQ(*tb.workload_config(wl).seed, 42u);
}

TEST(Harness, TestbedRejectsLeafSpinesItCannotIndex) {
  auto one_leaf = small(Scheme::kEcmp);
  one_leaf.topo.n_leaves = 1;
  EXPECT_THROW(Testbed tb(one_leaf), std::invalid_argument);
  auto no_hosts = small(Scheme::kEcmp);
  no_hosts.topo.hosts_per_leaf = 0;
  EXPECT_THROW(Testbed tb(no_hosts), std::invalid_argument);
  auto asym_one_spine = small(Scheme::kEcmp);
  asym_one_spine.topo.n_spines = 1;
  asym_one_spine.asymmetric = true;
  EXPECT_THROW(Testbed tb(asym_one_spine), std::invalid_argument);
}

TEST(Harness, S2L2LinkMethodsRejectAFabricWithoutOne) {
  auto one_spine = small(Scheme::kEcmp);
  one_spine.topo.n_spines = 1;
  Testbed tb(one_spine);
  EXPECT_EQ(tb.clients().size(), 4u);
  EXPECT_THROW(tb.fail_s2_l2_link(), std::invalid_argument);
  EXPECT_THROW(tb.restore_s2_l2_link(), std::invalid_argument);
}

TEST(Harness, FlightWatchCoversLeafSpineFabricLinks) {
  telemetry::ScopeSettings st;
  st.enabled = false;
  st.flight.mode = telemetry::FlightMode::kSampled;
  telemetry::Scope scope(st);
  telemetry::ScopeGuard guard(scope);
  Testbed tb(small(Scheme::kEcmp));
  ASSERT_NE(tb.flight_watch(), nullptr);
  const std::string csv = tb.flight_watch()->to_csv();
  const std::string header = csv.substr(0, csv.find('\n'));
  // [leaf][spine][parallel link], each up then down, util then queue.
  EXPECT_EQ(header.rfind(
                "time_ms,util:L1->S1#0,queue:L1->S1#0,util:S1->L1#0,"
                "queue:S1->L1#0,util:L1->S1#1,queue:L1->S1#1,util:S1->L1#1,"
                "queue:S1->L1#1,util:L1->S2#0,",
                0),
            0u)
      << header;
  // 2 leaves x 2 spines x 2 links x 2 directions x 2 series.
  EXPECT_EQ(std::count(header.begin(), header.end(), ','), 32);
}

// ---------------------------------------------------------------------------
// Metrics snapshots collected from the components' stats
// ---------------------------------------------------------------------------

/// A fresh telemetry scope, collecting, installed for the caller's block.
struct CollectingScope {
  explicit CollectingScope(bool flight_full = false)
      : scope(settings(flight_full)), guard(scope) {}
  static telemetry::ScopeSettings settings(bool flight_full) {
    telemetry::ScopeSettings s;
    s.enabled = true;
    if (flight_full) s.flight.mode = telemetry::FlightMode::kFull;
    return s;
  }
  telemetry::Scope scope;
  telemetry::ScopeGuard guard;
};

workload::ClientServerConfig tiny_wl() {
  workload::ClientServerConfig wl;
  wl.jobs_per_conn = 4;
  wl.conns_per_client = 1;
  wl.load = 0.5;
  return wl;
}

TEST(Harness, SnapshotHoldsOnlyTheCurrentRunsRows) {
  // Two runs in one scope: the second snapshot describes the second testbed
  // alone, with no zeroed rows left over from the first run's hosts.
  CollectingScope tel;
  const ExperimentResult ecmp = run_fct_experiment(small(Scheme::kEcmp),
                                                   tiny_wl());
  const ExperimentResult clove =
      run_fct_experiment(small(Scheme::kCloveEcn), tiny_wl());
  ASSERT_FALSE(ecmp.metrics.samples.empty());
  EXPECT_NE(ecmp.metrics.find("hyp.encapped",
                              {{"host", "h1-1"}, {"scheme", "ecmp"}}),
            nullptr);
  int stale = 0;
  for (const telemetry::MetricSample& m : clove.metrics.samples) {
    for (const auto& [key, value] : m.labels) {
      if (key == "scheme" && value == "ecmp") ++stale;
    }
  }
  EXPECT_EQ(stale, 0);
  EXPECT_EQ(clove.metrics.samples.size(), ecmp.metrics.samples.size());
}

TEST(Harness, CollectedMetricsMatchTheResultCounters) {
  CollectingScope tel(/*flight_full=*/true);
  ExperimentConfig cfg = small(Scheme::kCloveEcn);
  cfg.asymmetric = true;
  cfg.topo.fabric_gbps = 10.0;  // scaled to the 4-host leaves, so queues mark
  cfg.path_health.enabled = true;
  cfg.fault_plan.add(20 * sim::kMillisecond, fault::FaultKind::kLinkDown,
                     "L1->S1#0");
  workload::ClientServerConfig wl;
  wl.jobs_per_conn = 20;
  wl.conns_per_client = 2;
  wl.load = 1.1;
  const ExperimentResult r = run_fct_experiment(cfg, wl);
  const telemetry::MetricsSnapshot& m = r.metrics;

  EXPECT_GT(r.ecn_marks, 0u);
  EXPECT_EQ(m.sum_over("link.ecn_marks"), static_cast<double>(r.ecn_marks));
  EXPECT_EQ(m.sum_over("link.drops_overflow"), static_cast<double>(r.drops));
  EXPECT_EQ(m.sum_over("tcp.timeouts"), static_cast<double>(r.timeouts));
  EXPECT_EQ(m.sum_over("tcp.fast_retransmits"),
            static_cast<double>(r.fast_retransmits));
  EXPECT_EQ(m.value_or("clove.fault.events_applied", -1.0), 1.0);

  int audits = 0;
  int pathset = 0;
  for (const telemetry::MetricSample& s : m.samples) {
    if (s.name.rfind("clove.audit.", 0) == 0) {
      ++audits;
      EXPECT_EQ(s.value, 0.0) << s.name;
    }
    if (s.name.rfind("clove.pathset.", 0) == 0) ++pathset;
  }
  EXPECT_EQ(audits, 4);
  EXPECT_GT(pathset, 0);
}

TEST(Harness, RowsMergeOnlyOnSameNameAndLabels) {
  // Parallel leaf-spine links share a display name, so their counters merge
  // into one row per name; distinct labels (hosts, names) stay apart.
  const ExperimentConfig cfg = small(Scheme::kEcmp);
  Testbed tb(cfg);
  tb.start_discovery();
  workload::ClientServerWorkload ws(tb.simulator(), tb.workload_config(tiny_wl()),
                                    tb.clients(), tb.servers());
  ws.start([&] { tb.simulator().stop(); });
  tb.simulator().run(cfg.max_sim_time);
  const telemetry::MetricsSnapshot snap =
      collect_metrics({.topology = &tb.topology()});

  std::map<std::string, std::uint64_t> tx_by_name;
  for (const auto& l : tb.topology().links()) {
    tx_by_name[l->name()] += l->stats().tx_packets;
  }
  EXPECT_LT(tx_by_name.size(), tb.topology().links().size());
  int link_rows = 0;
  for (const telemetry::MetricSample& m : snap.samples) {
    if (m.name == "link.tx_packets") ++link_rows;
  }
  EXPECT_EQ(link_rows, static_cast<int>(tx_by_name.size()));
  double total = 0;
  for (const auto& [name, tx] : tx_by_name) {
    const telemetry::MetricSample* m =
        snap.find("link.tx_packets", {{"link", name}});
    ASSERT_NE(m, nullptr) << name;
    EXPECT_EQ(m->value, static_cast<double>(tx)) << name;
    total += m->value;
  }
  EXPECT_GT(total, 0.0);
  int host_rows = 0;
  for (const telemetry::MetricSample& m : snap.samples) {
    if (m.name == "hyp.encapped") ++host_rows;
  }
  EXPECT_EQ(host_rows,
            static_cast<int>(tb.clients().size() + tb.servers().size()));
}

TEST(Harness, RepeatedRunsInOneScopeSnapshotAlike) {
  // Each run's tcp.rtt_us comes from that run's workload, so a second,
  // identical run in the same scope reports the same histogram.
  CollectingScope tel;
  const ExperimentResult a = run_fct_experiment(small(Scheme::kCloveEcn),
                                                tiny_wl());
  const ExperimentResult b = run_fct_experiment(small(Scheme::kCloveEcn),
                                                tiny_wl());
  const telemetry::MetricSample* rtt = b.metrics.find("tcp.rtt_us");
  ASSERT_NE(rtt, nullptr);
  EXPECT_GT(rtt->count, 0u);
  EXPECT_EQ(a.metrics.to_json().dump(), b.metrics.to_json().dump());
}

TEST(Harness, TransportTotalsSumEverySenderField) {
  // A fabric link fails under a path-health monitor: evictions repin stalled
  // senders, and the workload totals must carry every field of every sender.
  ExperimentConfig cfg = small(Scheme::kCloveEcn);
  cfg.path_health.enabled = true;
  cfg.fault_plan.add(20 * sim::kMillisecond, fault::FaultKind::kLinkDown,
                     "L1->S1#0");
  Testbed tb(cfg);
  tb.start_discovery();
  workload::ClientServerConfig wl;
  wl.jobs_per_conn = 20;
  wl.conns_per_client = 2;
  wl.load = 0.8;
  workload::ClientServerWorkload ws(tb.simulator(), tb.workload_config(wl),
                                    tb.clients(), tb.servers());
  ws.start([&] { tb.simulator().stop(); });
  tb.simulator().run(cfg.max_sim_time);

  transport::TcpSenderStats sum;
  ws.for_each_sender([&sum](const transport::TcpSender& s) {
    const transport::TcpSenderStats& st = s.stats();
    sum.bytes_sent += st.bytes_sent;
    sum.bytes_acked += st.bytes_acked;
    sum.packets_sent += st.packets_sent;
    sum.fast_retransmits += st.fast_retransmits;
    sum.timeouts += st.timeouts;
    sum.ecn_reductions += st.ecn_reductions;
    sum.evict_repins += st.evict_repins;
  });
  const transport::TcpSenderStats t = ws.transport_totals();
  EXPECT_GE(sum.evict_repins, 1u) << "the failure must repin a sender";
  EXPECT_EQ(t.bytes_sent, sum.bytes_sent);
  EXPECT_EQ(t.bytes_acked, sum.bytes_acked);
  EXPECT_EQ(t.packets_sent, sum.packets_sent);
  EXPECT_EQ(t.fast_retransmits, sum.fast_retransmits);
  EXPECT_EQ(t.timeouts, sum.timeouts);
  EXPECT_EQ(t.ecn_reductions, sum.ecn_reductions);
  EXPECT_EQ(t.evict_repins, sum.evict_repins);
}

// ---------------------------------------------------------------------------
// The same Testbed on a k=4 fat-tree
// ---------------------------------------------------------------------------

ExperimentConfig fat_tree(Scheme s) {
  ExperimentConfig cfg = small(s);
  cfg.fat_tree_k = 4;
  cfg.hybrid = hybrid::HybridConfig{};  // pinned, not read from CLOVE_HYBRID
  return cfg;
}

workload::ClientServerConfig small_web_search() {
  workload::ClientServerConfig wl;
  wl.jobs_per_conn = 6;
  wl.conns_per_client = 1;
  wl.load = 0.5;
  return wl;
}

TEST(HarnessFatTree, ClientsAndServersAreLowerAndUpperPodHalves) {
  Testbed tb(fat_tree(Scheme::kEcmp));
  ASSERT_TRUE(tb.is_fat_tree());
  const net::FatTree& ft = tb.fat_tree();
  ASSERT_EQ(ft.n_pods(), 4);
  std::vector<overlay::Hypervisor*> lower, upper;
  for (std::size_t pod = 0; pod < 4; ++pod) {
    for (net::Node* h : ft.hosts_by_pod[pod]) {
      (pod < 2 ? lower : upper)
          .push_back(static_cast<overlay::Hypervisor*>(h));
    }
  }
  EXPECT_EQ(lower.size(), 8u);
  EXPECT_EQ(tb.clients(), lower);
  EXPECT_EQ(tb.servers(), upper);
  EXPECT_TRUE(tb.fabric().leaves.empty());
  // Full bisection: offered load is priced on the clients' access links.
  EXPECT_EQ(tb.bisection_bytes_per_sec(), 8 * sim::gbps_to_bytes_per_sec(10.0));
}

TEST(HarnessFatTree, RejectsLeafSpineOnlySchemesAndFaults) {
  EXPECT_THROW(Testbed tb(fat_tree(Scheme::kConga)), std::invalid_argument);
  EXPECT_THROW(Testbed tb(fat_tree(Scheme::kLetFlow)), std::invalid_argument);
  auto asym = fat_tree(Scheme::kEcmp);
  asym.asymmetric = true;
  EXPECT_THROW(Testbed tb(asym), std::invalid_argument);
  auto odd = fat_tree(Scheme::kEcmp);
  odd.fat_tree_k = 3;
  EXPECT_THROW(Testbed tb(odd), std::invalid_argument);

  Testbed tb(fat_tree(Scheme::kEcmp));
  EXPECT_THROW(tb.fail_s2_l2_link(), std::invalid_argument);
}

TEST(HarnessFatTree, FctRunCompletesEveryJobDeterministically) {
  const auto cfg = fat_tree(Scheme::kEcmp);
  const ExperimentResult a = run_fct_experiment(cfg, small_web_search());
  const ExperimentResult b = run_fct_experiment(cfg, small_web_search());
  EXPECT_EQ(a.jobs, 8u * 6u);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(a.avg_fct_s, b.avg_fct_s);
  EXPECT_EQ(a.p99_fct_s, b.p99_fct_s);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.ecn_marks, b.ecn_marks);
}

TEST(HarnessFatTree, HybridPromotesAndKeepsEveryJob) {
  auto cfg = fat_tree(Scheme::kEcmp);
  const ExperimentResult off = run_fct_experiment(cfg, small_web_search());
  cfg.hybrid.enabled = true;
  const ExperimentResult on = run_fct_experiment(cfg, small_web_search());
  EXPECT_EQ(off.hybrid.promotions, 0u);
  EXPECT_GT(on.hybrid.promotions, 0u);
  EXPECT_EQ(on.jobs, off.jobs);
}

TEST(HarnessFatTree, CloveEcnDiscoversEveryCrossPodPath) {
  auto cfg = fat_tree(Scheme::kCloveEcn);
  cfg.discovery.max_ttl = 8;  // 5 switch hops + the destination
  cfg.discovery.k_paths = 8;  // ask for more than exist
  Testbed tb(cfg);
  tb.start_discovery();
  tb.simulator().run(cfg.traffic_start);
  overlay::Hypervisor* src = tb.clients().front();
  const overlay::Hypervisor* dst = tb.servers().back();
  const overlay::PathSet* ps = src->discovery().paths(dst->ip());
  ASSERT_NE(ps, nullptr);
  EXPECT_EQ(ps->size(), 4u);
  EXPECT_EQ(static_cast<int>(ps->size()), tb.fat_tree().cross_pod_paths());
}

}  // namespace
}  // namespace clove::harness
