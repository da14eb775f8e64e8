// Link-failure recovery demo (§3.1/§5.2): run steady web-search traffic
// under Clove-ECN, fail an S2-L2 fabric link mid-run, and watch
//   1. routing recompute at the switches (ECMP next-hop sets shrink),
//   2. the periodic traceroute rounds rediscover the port->path mapping,
//   3. the Clove-ECN weights shift away from the S2 bottleneck.
//
// The flight recorder rides along in sampled mode and reconstructs the
// story from packet provenance alone: per-spine byte/flowlet shares per
// time bucket show the traffic draining off S2 after the failure, and the
// invariant auditors confirm nothing vanished or reached a VM out of
// order while routes churned. With CLOVE_JSON_OUT set the capture is
// exported as JSONL + chrome://tracing JSON + flight artifacts.
//
//   ./link_failure_recovery
//   CLOVE_JSON_OUT=out ./link_failure_recovery   # also dump trace files

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "lb/clove_ecn.hpp"
#include "stats/timeseries.hpp"
#include "telemetry/artifact.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/scope.hpp"
#include "workload/client_server.hpp"

int main() {
  using namespace clove;

  const sim::Time fail_at = sim::milliseconds(300);

  harness::ExperimentConfig cfg = harness::make_testbed_profile();
  cfg.scheme = harness::Scheme::kCloveEcn;
  cfg.discovery.probe_interval = 250 * sim::kMillisecond;
  // Keep a marked path on the "congested" list for longer than the per-path
  // feedback inter-arrival time (~15ms here), so weight removed from the
  // bottleneck is not spread right back onto it at the next reduction.
  cfg.clove_congestion_expiry = 20 * sim::kMillisecond;
  // The mid-run failure is a scheduled fault-plan event (DESIGN.md §8), not
  // a hand-rolled simulator callback: the S2-L2 link dies at t=300ms and
  // the fabric's routing keeps pointing at the corpse for another 30ms (the
  // convergence blackhole). Source-side path-health monitoring rides along
  // and evicts dead outer ports if keepalives go unanswered.
  cfg.path_health.enabled = true;
  cfg.fault_plan.route_convergence = 30 * sim::kMillisecond;
  cfg.fault_plan.add(fail_at, fault::FaultKind::kLinkDown, "L2->S2#0");

  // Capture the decisions that tell the recovery story: WRR weight updates,
  // topology changes and TCP loss recovery. (Feedback/flowlet events run to
  // millions here and would evict the interesting window from the ring.)
  telemetry::current_scope().set_enabled(true);
  telemetry::current_scope().trace().set_capacity(1u << 18);
  telemetry::current_scope().trace().set_filter(
      static_cast<unsigned>(telemetry::Category::kWeight) |
      static_cast<unsigned>(telemetry::Category::kTopology) |
      static_cast<unsigned>(telemetry::Category::kTcp));
  // Flight recorder in sampled mode: flow/flowlet records and the invariant
  // auditors cover every packet; hop-by-hop journeys (which attribute bytes
  // to physical paths) track every 4th packet — plenty for share estimates.
  telemetry::FlightConfig fc;
  fc.mode = telemetry::FlightMode::kSampled;
  fc.sample_every = 4;
  fc.usage_bucket = 100 * sim::kMillisecond;
  telemetry::current_scope().set_flight_config(fc);
  telemetry::current_scope().begin_run();

  harness::Testbed tb(cfg);
  tb.start_discovery();

  // Mark ECN only on fabric ports. Marks from shared edge hops (the
  // leaf->host downlinks) carry no path signal — every path to a host
  // crosses the same last hop — so for a weight-adaptation demo they are
  // pure noise; the paper's testbed likewise marks at the switches' fabric
  // ports (§5). Host NIC egress never marks (see build_leaf_spine).
  std::set<net::LinkId> fabric_ids;
  for (auto& per_leaf : tb.fabric().fabric_links) {
    for (auto& per_spine : per_leaf) {
      for (net::Link* l : per_spine) {
        fabric_ids.insert(l->id());
        fabric_ids.insert(tb.topology().reverse_of(l)->id());
      }
    }
  }
  for (const auto& l : tb.topology().links()) {
    if (fabric_ids.count(l->id()) == 0) l->set_ecn_marking(false);
  }

  workload::ClientServerConfig wl;
  // 16 clients x 10G x 0.45 = 72G offered. Pre-failure the fabric has 160G
  // both ways — marks are rare everywhere. After one S2-L2 link fails, a
  // 50% S2 weight share would put 36G on the surviving 40G link (~90% hot,
  // marking hard) while each S1 link sits at ~45%: the ECN feedback rate
  // becomes strongly path-differentiated and the weights must move off S2
  // toward the 33% capacity share.
  wl.load = 0.45;
  wl.jobs_per_conn = 500;
  wl.conns_per_client = 2;
  wl.tcp = cfg.tcp;
  wl.start_time = cfg.traffic_start;
  workload::ClientServerWorkload ws(tb.simulator(), wl, tb.clients(),
                                    tb.servers());
  ws.start([&] { tb.simulator().stop(); });

  auto* client = tb.clients()[0];
  const net::IpAddr s2 = tb.fabric().spines[1]->ip();

  // Watch the surviving S2->L2 link's queue around the failure.
  stats::TimeSeriesSet watch(tb.simulator());
  net::Link* survivor = tb.fabric().fabric_links[1][1][1];
  net::Link* survivor_down = tb.topology().reverse_of(survivor);
  watch.add("s2_l2_queue_pkts",
            [survivor_down] {
              return static_cast<double>(survivor_down->queue_bytes()) / 1578.0;
            },
            sim::milliseconds(1));
  watch.add("s2_l2_utilization",
            [survivor_down] { return survivor_down->utilization(); },
            sim::milliseconds(1));
  watch.start_all();

  // Periodically report how much WRR weight this client places on paths
  // through S2 (averaged over the servers it has discovered paths to).
  auto report = [&](const char* tag) {
    auto* pol = static_cast<lb::CloveEcnPolicy*>(&client->policy());
    double s2_mass = 0.0, total = 0.0;
    int dsts = 0;
    for (auto* srv : tb.servers()) {
      const overlay::PathSet* ps = client->discovery().paths(srv->ip());
      if (ps == nullptr) continue;
      const auto w = pol->weights(srv->ip());
      if (w.size() != ps->paths.size()) continue;
      ++dsts;
      for (std::size_t i = 0; i < w.size(); ++i) {
        total += w[i];
        for (const auto& hop : ps->paths[i].hops) {
          if (hop.node == s2) {
            s2_mass += w[i];
            break;
          }
        }
      }
    }
    std::printf("[%8s] t=%-10s dsts=%d  weight via S2: %4.1f%%  (capacity "
                "share after failure: 33.3%%)\n",
                tag, sim::format_time(tb.simulator().now()).c_str(), dsts,
                total > 0 ? 100.0 * s2_mass / total : 0.0);
  };

  // The injector (armed by the Testbed from cfg.fault_plan) does the actual
  // damage; this callback only narrates it.
  tb.simulator().schedule_at(fail_at, [&] {
    std::printf("\n*** fault plan: one S2-L2 40G link fails at t=%s "
                "(routes converge 30ms later) ***\n\n",
                sim::format_time(fail_at).c_str());
  });
  for (int i = 1; i <= 20; ++i) {
    tb.simulator().schedule_at(i * sim::milliseconds(200), [&, i] {
      report(i * 200 <= 300 ? "pre-fail" : "recovery");
    });
  }

  tb.simulator().run(cfg.max_sim_time);

  std::printf("\nworkload finished: %llu/%llu jobs, avg FCT %.3fs\n",
              static_cast<unsigned long long>(ws.jobs_done()),
              static_cast<unsigned long long>(ws.jobs_total()),
              ws.fct().all().mean());
  const auto* q = watch.find("s2_l2_queue_pkts");
  std::printf("surviving S2->L2 link queue: pre-failure mean %.1f pkts, "
              "first 100ms after failure %.1f pkts, last 100ms %.1f pkts\n",
              q->mean_between(0, fail_at),
              q->mean_between(fail_at, fail_at + sim::milliseconds(100)),
              q->mean_between(tb.simulator().now() - sim::milliseconds(100),
                              tb.simulator().now()));
  std::printf("route recomputations: %d, discovery rounds at %s: %d\n",
              tb.topology().route_epoch(), client->name().c_str(),
              client->discovery().rounds_completed());
  if (const auto* inj = tb.fault_injector()) {
    std::uint64_t keepalives = 0, evictions = 0, readmissions = 0;
    for (auto* c : tb.clients()) {
      if (const auto* ph = c->path_health()) {
        keepalives += ph->stats().keepalives_sent;
        evictions += ph->stats().evictions;
        readmissions += ph->stats().readmissions;
      }
    }
    std::printf("fault plan: %d event(s) applied, %d deferred route "
                "recompute(s); path health: %llu keepalives, %llu "
                "evictions, %llu readmissions\n",
                inj->stats().events_applied, inj->stats().route_recomputes,
                static_cast<unsigned long long>(keepalives),
                static_cast<unsigned long long>(evictions),
                static_cast<unsigned long long>(readmissions));
  }

  std::printf("\nfabric link scoreboard (downstream spine->L2 direction):\n");
  for (std::size_t s = 0; s < tb.fabric().spines.size(); ++s) {
    for (std::size_t k = 0; k < tb.fabric().fabric_links[1][s].size(); ++k) {
      net::Link* up = tb.fabric().fabric_links[1][s][k];
      const net::Link* down = tb.topology().reverse_of(up);
      const auto& st = down->stats();
      std::printf("  %-12s tx=%9llu pkts  ecn_marks=%8llu  drops=%6llu%s\n",
                  down->name().c_str(),
                  static_cast<unsigned long long>(st.tx_packets),
                  static_cast<unsigned long long>(st.ecn_marks),
                  static_cast<unsigned long long>(st.drops_overflow),
                  down->is_down() ? "  [FAILED]" : "");
    }
  }

  // -------------------------------------------------------------------
  // Flight-recorder view: the same recovery story, reconstructed from
  // per-packet path provenance instead of policy internals — per-spine
  // byte/flowlet shares per 100ms bucket, then the invariant audits.
  // -------------------------------------------------------------------
  const telemetry::TraceLog& ring = telemetry::current_scope().trace();
  std::printf("\ntrace ring: %llu events captured (%llu recorded, %llu "
              "overwritten)\n",
              static_cast<unsigned long long>(ring.size()),
              static_cast<unsigned long long>(ring.recorded_total()),
              static_cast<unsigned long long>(ring.dropped_oldest()));
  for (const auto* ev :
       ring.events(static_cast<unsigned>(telemetry::Category::kTopology))) {
    std::printf("  [topology] t=%-10s %-22s %s\n",
                sim::format_time(ev->t).c_str(), ev->name.c_str(),
                ev->detail.c_str());
  }

  telemetry::FlightRecorder* fr = telemetry::flight();
  const std::uint32_t s2_id = tb.fabric().spines[1]->id();

  // Per-bucket spine shares from the sampled journeys: every delivered
  // tracked packet attributed its bytes to the spine it crossed.
  std::printf("\nper-spine traffic shares from packet provenance "
              "(sampled 1-in-%llu, %sms buckets):\n",
              static_cast<unsigned long long>(fc.sample_every),
              std::to_string(fc.usage_bucket / sim::kMillisecond).c_str());
  const std::vector<telemetry::PathUsage> usage = fr->path_usage();
  std::map<sim::Time, std::map<std::uint32_t, telemetry::PathUsage>> buckets;
  for (const telemetry::PathUsage& pu : usage) buckets[pu.bucket_start][pu.via] = pu;
  double pre_bytes = 0.0, pre_s2 = 0.0, post_bytes = 0.0, post_s2 = 0.0;
  double pre_fl = 0.0, pre_fl_s2 = 0.0, post_fl = 0.0, post_fl_s2 = 0.0;
  for (const auto& [t, by_via] : buckets) {
    double bytes = 0.0, s2_b = 0.0, fl = 0.0, s2_fl = 0.0;
    for (const auto& [via, pu] : by_via) {
      bytes += static_cast<double>(pu.bytes);
      fl += static_cast<double>(pu.flowlets);
      if (via == s2_id) {
        s2_b += static_cast<double>(pu.bytes);
        s2_fl += static_cast<double>(pu.flowlets);
      }
    }
    if (bytes <= 0.0) continue;
    const bool post = t >= fail_at;
    (post ? post_bytes : pre_bytes) += bytes;
    (post ? post_s2 : pre_s2) += s2_b;
    (post ? post_fl : pre_fl) += fl;
    (post ? post_fl_s2 : pre_fl_s2) += s2_fl;
    std::printf("  [%-10s)  via S2: %5.1f%% of bytes, %5.1f%% of flowlets%s\n",
                sim::format_time(t).c_str(), 100.0 * s2_b / bytes,
                fl > 0.0 ? 100.0 * s2_fl / fl : 0.0,
                t + fc.usage_bucket <= fail_at ? "  pre-failure" : "");
  }
  std::printf("  S2 byte share: %.1f%% before the failure, %.1f%% after "
              "(capacity share after failure: 33.3%%)\n",
              pre_bytes > 0 ? 100.0 * pre_s2 / pre_bytes : 0.0,
              post_bytes > 0 ? 100.0 * post_s2 / post_bytes : 0.0);
  std::printf("  S2 flowlet share: %.1f%% before, %.1f%% after\n",
              pre_fl > 0 ? 100.0 * pre_fl_s2 / pre_fl : 0.0,
              post_fl > 0 ? 100.0 * post_fl_s2 / post_fl : 0.0);

  // The always-on invariant auditors rode through the failure: packets may
  // die on the failed link (accounted drops), but none may vanish silently,
  // arrive reordered within a flowlet, or leak ECN state into a guest. With
  // CLOVE_JSON_OUT set, the summary is also exported as FLIGHT_link_failure
  // plus the journeys/flows JSONL.
  const telemetry::FlightSummary fs = harness::export_flight(tb, "link_failure");
  std::printf("\nflight recorder: %llu packets seen, %llu journeys (%llu "
              "delivered, %llu dropped), %llu flowlets\n",
              static_cast<unsigned long long>(fs.packets_seen),
              static_cast<unsigned long long>(fs.journeys_started),
              static_cast<unsigned long long>(fs.delivered),
              static_cast<unsigned long long>(fs.dropped),
              static_cast<unsigned long long>(fs.flowlets));
  std::printf("invariant audits: conservation=%llu flowlet_reorder=%llu "
              "vm_reorder=%llu ecn_mask=%llu%s\n",
              static_cast<unsigned long long>(fs.audit.conservation),
              static_cast<unsigned long long>(fs.audit.flowlet_reorder),
              static_cast<unsigned long long>(fs.audit.vm_reorder),
              static_cast<unsigned long long>(fs.audit.ecn_mask),
              fs.audit.total() == 0 ? "  [all clean]" : "  [VIOLATIONS]");

  // Optional machine-readable exports of the trace ring.
  const std::string out_dir = telemetry::json_out_dir();
  if (!out_dir.empty()) {
    const std::string jsonl = telemetry::write_text_artifact(
        out_dir, "link_failure_trace.jsonl", ring.to_jsonl());
    const std::string chrome = telemetry::write_text_artifact(
        out_dir, "link_failure_trace.chrome.json", ring.to_chrome_trace());
    std::printf("\ntrace exports: %s\n               %s\n"
                "flight exports: %s/FLIGHT_link_failure.json, "
                "flight_link_failure_*\n",
                jsonl.c_str(), chrome.c_str(), out_dir.c_str());
  }
  return 0;
}
