#include "harness/experiment.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <utility>

#include "lb/clove_ecn.hpp"
#include "lb/clove_int.hpp"
#include "lb/clove_latency.hpp"
#include "lb/ecmp.hpp"
#include "lb/edge_flowlet.hpp"
#include "lb/presto.hpp"
#include "net/conga_switch.hpp"
#include "net/letflow_switch.hpp"
#include "net/packet_pool.hpp"
#include "prof/prof.hpp"
#include "sim/logging.hpp"
#include "telemetry/artifact.hpp"
#include "telemetry/scope.hpp"

namespace clove::harness {

std::string scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kEcmp: return "ECMP";
    case Scheme::kEdgeFlowlet: return "Edge-Flowlet";
    case Scheme::kCloveEcn: return "Clove-ECN";
    case Scheme::kCloveInt: return "Clove-INT";
    case Scheme::kCloveLatency: return "Clove-Latency";
    case Scheme::kPresto: return "Presto";
    case Scheme::kMptcp: return "MPTCP";
    case Scheme::kConga: return "CONGA";
    case Scheme::kLetFlow: return "LetFlow";
  }
  return "?";
}

bool scheme_is_edge_based(Scheme s) {
  return s != Scheme::kConga && s != Scheme::kLetFlow;
}

// ---------------------------------------------------------------------------
// Testbed
// ---------------------------------------------------------------------------

std::unique_ptr<lb::Policy> Testbed::make_policy() {
  switch (cfg_.scheme) {
    case Scheme::kEdgeFlowlet:
      return std::make_unique<lb::EdgeFlowletPolicy>(cfg_.flowlet_gap);
    case Scheme::kCloveEcn: {
      lb::CloveEcnConfig c;
      c.flowlet_gap = cfg_.flowlet_gap;
      c.reduce_factor = cfg_.clove_reduce_factor;
      c.congestion_expiry = cfg_.clove_congestion_expiry;
      c.recovery_interval = cfg_.clove_recovery_interval;
      c.recovery_rate = cfg_.clove_recovery_rate;
      c.adaptive_gap = cfg_.adaptive_flowlet_gap;
      return std::make_unique<lb::CloveEcnPolicy>(c, cfg_.seed * 131 + 7);
    }
    case Scheme::kCloveInt: {
      lb::CloveIntConfig c;
      c.flowlet_gap = cfg_.flowlet_gap;
      return std::make_unique<lb::CloveIntPolicy>(c, cfg_.seed * 131 + 7);
    }
    case Scheme::kCloveLatency: {
      lb::CloveLatencyConfig c;
      c.flowlet_gap = cfg_.flowlet_gap;
      return std::make_unique<lb::CloveLatencyPolicy>(c, cfg_.seed * 131 + 7);
    }
    case Scheme::kPresto:
      // Ideal static weights for asymmetry are installed after the fabric
      // is built (the spine IPs are unknown at host-creation time).
      return std::make_unique<lb::PrestoPolicy>();
    case Scheme::kMptcp:
      // MPTCP diversifies via inner tuples over an ECMP edge, but its
      // subflows pin hard to their hash — so the edge honors path-health
      // evictions (migrate mode) and re-pins subflows off dead paths.
      return std::make_unique<lb::EcmpPolicy>(/*migrate_on_evict=*/true);
    case Scheme::kEcmp:
    case Scheme::kConga:
    case Scheme::kLetFlow:
      // CONGA/LetFlow re-route inside the fabric; plain ECMP is the
      // never-recovering baseline. All pair with a plain ECMP edge.
      return std::make_unique<lb::EcmpPolicy>();
  }
  return std::make_unique<lb::EcmpPolicy>();
}

overlay::HypervisorConfig Testbed::make_hyp_config() {
  overlay::HypervisorConfig h;
  h.overlay = !cfg_.non_overlay;
  h.feedback_relay_interval = cfg_.feedback_relay_interval;
  h.reorder_buffer =
      (cfg_.scheme == Scheme::kPresto) && !cfg_.presto_no_reorder;
  h.discovery = cfg_.discovery;
  h.measure_latency =
      (cfg_.scheme == Scheme::kCloveLatency) || cfg_.adaptive_flowlet_gap;
  h.tcp = cfg_.tcp;
  h.path_health = cfg_.path_health;
  return h;
}

namespace {

const ExperimentConfig& validated(const ExperimentConfig& cfg) {
  if (cfg.fat_tree_k != 0) {
    if (cfg.fat_tree_k < 2 || cfg.fat_tree_k % 2 != 0) {
      throw std::invalid_argument("fat_tree_k must be 0 or an even k >= 2");
    }
    if (!scheme_is_edge_based(cfg.scheme)) {
      throw std::invalid_argument(scheme_name(cfg.scheme) +
                                  " needs leaf-spine leaves");
    }
    if (cfg.asymmetric) {
      throw std::invalid_argument("asymmetric fails the leaf-spine S2-L2 link");
    }
    return cfg;
  }
  const net::LeafSpineConfig& t = cfg.topo;
  if (t.n_leaves < 2 || t.n_spines < 1 || t.links_per_pair < 1 ||
      t.hosts_per_leaf < 1) {
    throw std::invalid_argument(
        "leaf-spine needs 2+ leaves and 1+ spines, links and hosts per leaf");
  }
  if (cfg.asymmetric && t.n_spines < 2) {
    throw std::invalid_argument("asymmetric needs a second spine");
  }
  return cfg;
}

/// The run-wide part of a workload's config: guest transport, MPTCP choice
/// and traffic start.
template <typename W>
W with_run_transport(W wl, const ExperimentConfig& cfg) {
  wl.tcp = cfg.tcp;
  wl.mptcp = cfg.mptcp;
  wl.use_mptcp = (cfg.scheme == Scheme::kMptcp);
  wl.start_time = cfg.traffic_start;
  return wl;
}

}  // namespace

net::Node* Testbed::make_host(net::Topology& topo, const std::string& name) {
  return topo.add_host<overlay::Hypervisor>(name, sim_, make_hyp_config(),
                                            make_policy());
}

Testbed::Testbed(const ExperimentConfig& cfg)
    : cfg_(validated(cfg)), sim_(cfg.seed) {
  topo_ = std::make_unique<net::Topology>(sim_);
  if (is_fat_tree()) {
    build_fat_tree();
  } else {
    build_leaf_spine();
  }

  // While the flight recorder is on, watch every fabric link's utilization
  // and queue depth so runs can be explained after the fact (the recorder's
  // journeys say *where* packets went; these series say *why* — which egress
  // queues were hot when the policy moved flowlets).
  if (telemetry::flight_active()) watch_fabric_links();

  if (cfg_.asymmetric) fail_s2_l2_link();

  // Arm the fault plan (config first, CLOVE_FAULT_PLAN as fallback) now
  // that every link and host exists. Events in the past fire immediately.
  fault::FaultPlan plan = cfg_.fault_plan;
  if (plan.empty()) {
    std::string err;
    plan = fault::FaultPlan::from_env(&err);
    if (!err.empty()) {
      CLOVE_WARN(sim_.now(), "harness", "ignoring fault plan: %s",
                 err.c_str());
    }
  }
  if (!plan.empty()) {
    injector_ = std::make_unique<fault::FaultInjector>(*topo_, std::move(plan));
    injector_->arm();
  }

  // Hybrid flow/packet engine (DESIGN.md §12): register every link so traced
  // elephant paths resolve, and attach every hypervisor so its senders become
  // promotion candidates and Clove degrade feedback demotes riders. When the
  // knob is off (the default) nothing is constructed and the simulation is
  // bit-identical to the packet-exact datapath.
  if (cfg_.hybrid.enabled) {
    hybrid_ = std::make_unique<hybrid::Engine>(sim_, cfg_.hybrid);
    for (const auto& l : topo_->links()) hybrid_->add_link(l.get());
    for (net::Node* h : topo_->hosts()) {
      static_cast<overlay::Hypervisor*>(h)->set_hybrid(hybrid_.get());
    }
  }
}

void Testbed::build_fat_tree() {
  net::FatTreeConfig ft;
  ft.k = cfg_.fat_tree_k;
  ft.ecn_threshold_pkts = cfg_.ecn_threshold_pkts;
  ft.int_telemetry = (cfg_.scheme == Scheme::kCloveInt);
  fat_tree_ = net::build_fat_tree(
      *topo_, ft, [this](net::Topology& topo, const std::string& name, int) {
        return make_host(topo, name);
      });
  const std::size_t pods = fat_tree_.hosts_by_pod.size();
  for (std::size_t pod = 0; pod < pods; ++pod) {
    auto& side = pod < pods / 2 ? clients_ : servers_;
    for (net::Node* h : fat_tree_.hosts_by_pod[pod]) {
      side.push_back(static_cast<overlay::Hypervisor*>(h));
    }
  }
}

void Testbed::build_leaf_spine() {
  net::LeafSpineConfig topo_cfg = cfg_.topo;
  topo_cfg.ecn_threshold_pkts = cfg_.ecn_threshold_pkts;
  topo_cfg.int_telemetry = (cfg_.scheme == Scheme::kCloveInt);
  topo_cfg.conga_metric = (cfg_.scheme == Scheme::kConga);

  // Switch factory: CONGA / LetFlow replace the leaves; spines stay ECMP.
  std::function<std::unique_ptr<net::Switch>(net::NodeId, std::string, int)>
      make_switch;
  if (cfg_.scheme == Scheme::kConga) {
    make_switch = [this](net::NodeId id, std::string name, int leaf_idx)
        -> std::unique_ptr<net::Switch> {
      if (leaf_idx >= 0) {
        net::CongaConfig cc;
        cc.flowlet_gap = cfg_.flowlet_gap;
        return std::make_unique<net::CongaLeafSwitch>(sim_, id, std::move(name),
                                                      cc);
      }
      return std::make_unique<net::Switch>(sim_, id, std::move(name));
    };
  } else if (cfg_.scheme == Scheme::kLetFlow) {
    make_switch = [this](net::NodeId id, std::string name, int leaf_idx)
        -> std::unique_ptr<net::Switch> {
      if (leaf_idx >= 0) {
        return std::make_unique<net::LetFlowSwitch>(sim_, id, std::move(name),
                                                    cfg_.flowlet_gap);
      }
      return std::make_unique<net::Switch>(sim_, id, std::move(name));
    };
  }

  fabric_ = net::build_leaf_spine(
      *topo_, topo_cfg,
      [this](net::Topology& topo, const std::string& name, int) {
        return make_host(topo, name);
      },
      make_switch);

  for (net::Node* h : fabric_.hosts_by_leaf[0]) {
    clients_.push_back(static_cast<overlay::Hypervisor*>(h));
  }
  for (net::Node* h : fabric_.hosts_by_leaf[1]) {
    servers_.push_back(static_cast<overlay::Hypervisor*>(h));
  }

  // CONGA leaves need the fabric map: uplink ports and host->leaf index.
  if (cfg_.scheme == Scheme::kConga) net::configure_conga_leaves(fabric_);

  if (cfg_.scheme == Scheme::kPresto && cfg_.asymmetric) {
    // §5.2: Presto gets "the benefit of doubt" — ideal static weights
    // reflecting the failed S2-L2 link (S2 paths carry half of S1 paths,
    // i.e. 1/3,1/3,1/6,1/6 over the four paths).
    const net::IpAddr s2 = fabric_.spines[1]->ip();
    auto weight_fn = [s2](const overlay::PathInfo& path) {
      for (const overlay::PathHop& hop : path.hops) {
        if (hop.node == s2) return 1.0;
      }
      return 2.0;
    };
    for (net::Node* h : topo_->hosts()) {
      auto* hyp = static_cast<overlay::Hypervisor*>(h);
      if (auto* presto = dynamic_cast<lb::PrestoPolicy*>(&hyp->policy())) {
        presto->set_weight_fn(weight_fn);
      }
    }
  }
}

void Testbed::watch_fabric_links() {
  flight_watch_ = std::make_unique<stats::TimeSeriesSet>(sim_);
  const sim::Time interval = 1 * sim::kMillisecond;
  // Parallel links between the same pair share a display name, so suffix
  // the parallel index to keep CSV columns distinct.
  const bool parallel = !is_fat_tree() && cfg_.topo.links_per_pair > 1;
  auto watch = [&](net::Link* l, std::size_t k) {
    std::string tag = l->name();
    if (parallel) {
      tag += '#';
      tag += std::to_string(k);
    }
    flight_watch_->add("util:" + tag, [l] { return l->utilization(); },
                       interval);
    flight_watch_->add(
        "queue:" + tag, [l] { return static_cast<double>(l->queue_bytes()); },
        interval);
  };
  // links()[i] and links()[i + 1] are the two directions of one connection,
  // and parallel connections between a pair are built back to back.
  auto is_switch = [](const net::Node* n) {
    return dynamic_cast<const net::Switch*>(n) != nullptr;
  };
  const auto& links = topo_->links();
  const net::Node* prev_src = nullptr;
  const net::Node* prev_dst = nullptr;
  std::size_t k = 0;
  for (std::size_t i = 0; i + 1 < links.size(); i += 2) {
    net::Link* up = links[i].get();
    net::Link* down = links[i + 1].get();
    const net::Node* src = down->dst();
    if (!is_switch(src) || !is_switch(up->dst())) continue;
    k = (src == prev_src && up->dst() == prev_dst) ? k + 1 : 0;
    prev_src = src;
    prev_dst = up->dst();
    watch(up, k);
    watch(down, k);
  }
  flight_watch_->start_all();
}

void Testbed::start_discovery() {
  std::vector<net::IpAddr> server_ips;
  std::vector<net::IpAddr> client_ips;
  for (auto* s : servers_) server_ips.push_back(s->ip());
  for (auto* c : clients_) client_ips.push_back(c->ip());
  for (auto* c : clients_) {
    if (c->policy().needs_discovery()) c->start_discovery(server_ips);
  }
  for (auto* s : servers_) {
    if (s->policy().needs_discovery()) s->start_discovery(client_ips);
  }
}

double Testbed::bisection_bytes_per_sec() const {
  if (is_fat_tree()) {
    return sim::gbps_to_bytes_per_sec(fat_tree_.cfg.host_gbps) *
           static_cast<double>(clients_.size());
  }
  const net::LeafSpineConfig& t = cfg_.topo;
  const double fabric_cut = sim::gbps_to_bytes_per_sec(t.fabric_gbps) *
                            t.n_spines * t.links_per_pair;
  const double access_total =
      sim::gbps_to_bytes_per_sec(t.host_gbps) * t.hosts_per_leaf;
  return std::min(fabric_cut, access_total);
}

workload::ClientServerConfig Testbed::workload_config(
    workload::ClientServerConfig wl) const {
  wl = with_run_transport(std::move(wl), cfg_);
  if (!wl.seed) wl.seed = cfg_.seed * 977 + 3;
  wl.bisection_bytes_per_sec = bisection_bytes_per_sec();
  return wl;
}

workload::IncastConfig Testbed::workload_config(
    workload::IncastConfig wl) const {
  return with_run_transport(std::move(wl), cfg_);
}

net::Link* Testbed::s2_l2_link() {
  // Spine S2 (index 1) to leaf L2 (index 1), first parallel link — the
  // failure the paper injects for every asymmetric experiment.
  if (fabric_.spines.size() < 2) {
    throw std::invalid_argument("fabric has no S2-L2 link");
  }
  return fabric_.fabric_links[1][1][0];
}

void Testbed::fail_s2_l2_link() {
  net::Link* l = s2_l2_link();
  if (!l->is_down()) topo_->fail_connection(l);
}

void Testbed::restore_s2_l2_link() {
  net::Link* l = s2_l2_link();
  if (l->is_down()) topo_->restore_connection(l);
}

std::uint64_t Testbed::total_drops() const {
  std::uint64_t n = 0;
  for (const auto& l : topo_->links()) n += l->stats().drops_overflow;
  return n;
}

std::uint64_t Testbed::total_ecn_marks() const {
  std::uint64_t n = 0;
  for (const auto& l : topo_->links()) n += l->stats().ecn_marks;
  return n;
}

// ---------------------------------------------------------------------------
// Metrics snapshot
// ---------------------------------------------------------------------------

telemetry::MetricsSnapshot collect_metrics(const MetricSources& src) {
  using telemetry::Labels;
  using telemetry::MetricKind;
  using telemetry::MetricSample;
  std::map<std::pair<std::string, Labels>, MetricSample> rows;
  auto row = [&rows](const char* name, const Labels& labels,
                     MetricKind kind) -> MetricSample& {
    auto [it, fresh] = rows.try_emplace({name, labels});
    if (fresh) {
      it->second.name = name;
      it->second.labels = labels;
      it->second.kind = kind;
    }
    return it->second;
  };
  auto count = [&row](const char* name, const Labels& labels,
                      std::uint64_t v) {
    row(name, labels, MetricKind::kCounter).value += static_cast<double>(v);
  };

  if (src.topology != nullptr) {
    for (const auto& l : src.topology->links()) {
      const Labels labels{{"link", l->name()}};
      const net::LinkStats& s = l->stats();
      count("link.tx_packets", labels, s.tx_packets);
      count("link.tx_bytes", labels, s.tx_bytes);
      count("link.drops_overflow", labels, s.drops_overflow);
      count("link.drops_down", labels, s.drops_down);
      count("link.drops_fault", labels, s.drops_fault);
      count("link.ecn_marks", labels, s.ecn_marks);
      MetricSample& hwm =
          row("link.queue_high_watermark_bytes", labels, MetricKind::kGauge);
      hwm.value = std::max(hwm.value, static_cast<double>(s.max_queue_bytes));
    }
    for (const net::Switch* sw : src.topology->switches()) {
      const Labels labels{{"switch", sw->name()}};
      const net::SwitchStats& s = sw->stats();
      count("switch.forwarded", labels, s.forwarded);
      count("switch.no_route_drops", labels, s.no_route_drops);
      count("switch.ttl_drops", labels, s.ttl_drops);
    }
    for (net::Node* node : src.topology->hosts()) {
      auto* hyp = dynamic_cast<overlay::Hypervisor*>(node);
      if (hyp == nullptr) continue;
      const Labels labels{{"host", hyp->name()},
                          {"scheme", hyp->policy().name()}};
      const overlay::HypervisorStats& s = hyp->stats();
      count("hyp.encapped", labels, s.encapped);
      count("hyp.decapped", labels, s.decapped);
      count("hyp.ce_intercepted", labels, s.ce_intercepted);
      count("hyp.feedback_attached", labels, s.feedback_attached);
      count("hyp.feedback_received", labels, s.feedback_received);
      count("hyp.forged_ece", labels, s.forged_ece);
      if (const overlay::PathHealthMonitor* ph = hyp->path_health()) {
        const Labels host{{"host", hyp->name()}};
        const overlay::PathHealthMonitor::Stats& p = ph->stats();
        count("clove.pathset.keepalives", host, p.keepalives_sent);
        count("clove.pathset.keepalive_acks", host, p.keepalive_acks);
        count("clove.pathset.suspects", host, p.suspects);
        count("clove.pathset.evictions", host, p.evictions);
        count("clove.pathset.readmissions", host, p.readmissions);
      }
    }
  }
  if (src.faults != nullptr) {
    const fault::FaultInjectorStats& s = src.faults->stats();
    count("clove.fault.events_applied", {},
          static_cast<std::uint64_t>(s.events_applied));
    count("clove.fault.route_recomputes", {},
          static_cast<std::uint64_t>(s.route_recomputes));
  }
  if (src.flight != nullptr) {
    const telemetry::AuditCounts& a = src.flight->audit();
    count("clove.audit.conservation", {}, a.conservation);
    count("clove.audit.flowlet_reorder", {}, a.flowlet_reorder);
    count("clove.audit.vm_reorder", {}, a.vm_reorder);
    count("clove.audit.ecn_mask", {}, a.ecn_mask);
  }
  if (src.transport != nullptr) {
    count("tcp.timeouts", {}, src.transport->timeouts);
    count("tcp.fast_retransmits", {}, src.transport->fast_retransmits);
    count("tcp.ecn_reductions", {}, src.transport->ecn_reductions);
  }
  if (src.rtt_us != nullptr) {
    const telemetry::Histogram& h = *src.rtt_us;
    MetricSample& s = row("tcp.rtt_us", {}, MetricKind::kHistogram);
    s.value = h.mean();
    s.count = h.count();
    s.sum = h.sum();
    s.min = h.min();
    s.max = h.max();
    s.p50 = h.percentile(50);
    s.p99 = h.percentile(99);
  }

  telemetry::MetricsSnapshot snap;
  snap.samples.reserve(rows.size());
  for (auto& [key, s] : rows) snap.samples.push_back(std::move(s));
  return snap;
}

// ---------------------------------------------------------------------------
// One-call experiment runners
// ---------------------------------------------------------------------------

ExperimentResult run_fct_experiment(const ExperimentConfig& cfg,
                                    const workload::ClientServerConfig& wl) {
  // Clear the scope's trace ring and flight recorder so they describe this
  // run only.
  telemetry::current_scope().begin_run();
  Testbed tb(cfg);
  tb.start_discovery();

  workload::ClientServerWorkload ws(tb.simulator(), tb.workload_config(wl),
                                    tb.clients(), tb.servers());
  ws.start([&] { tb.simulator().stop(); });
  tb.simulator().run(cfg.max_sim_time);

  ExperimentResult r;
  r.jobs = ws.jobs_done();
  r.avg_fct_s = ws.fct().all().mean();
  r.mice_avg_fct_s = ws.fct().mice().mean();
  r.elephant_avg_fct_s = ws.fct().elephants().mean();
  r.p99_fct_s = ws.fct().all().percentile(99);
  r.mice_p99_fct_s = ws.fct().mice().percentile(99);
  const auto t = ws.transport_totals();
  r.timeouts = t.timeouts;
  r.fast_retransmits = t.fast_retransmits;
  r.ecn_marks = tb.total_ecn_marks();
  r.drops = tb.total_drops();
  r.events = tb.simulator().events_processed();
  r.queue_hwm = tb.simulator().queue_high_water();
  r.fct = std::make_shared<stats::FctRecorder>(std::move(ws.fct()));
  if (tb.hybrid() != nullptr) r.hybrid = tb.hybrid()->stats();

  // Fold this run's engine gauges into the installed profiler (one cold pass
  // per experiment; the parallel runner later merges per-task profilers).
  if (auto* p = prof::active()) {
    p->note_simulator(tb.simulator().events_processed(),
                      tb.simulator().queue_high_water(),
                      tb.simulator().queue_slab_capacity());
    auto& pool = net::PacketPool::of(tb.simulator());
    p->note_pool(pool.allocated(), pool.reused());
    for (auto* h : tb.clients()) h->prof_note_tables(*p);
    for (auto* h : tb.servers()) h->prof_note_tables(*p);
  }

  if (telemetry::enabled()) {
    // Collecting walks every link, switch and host: attribute it to the
    // telemetry scope so observability overhead shows up in the profile.
    CLOVE_PROF_SCOPE(prof::kTelemetry);
    r.metrics = collect_metrics(
        {.topology = &tb.topology(),
         .faults = tb.fault_injector(),
         .flight = telemetry::flight(),
         .transport = &t,
         .rtt_us = &ws.rtt_us()});
  }
  r.flight = export_flight(tb, scheme_name(cfg.scheme));
  return r;
}

telemetry::FlightSummary export_flight(Testbed& tb, const std::string& stem) {
  telemetry::FlightRecorder* fr = telemetry::flight();
  if (fr == nullptr) return {};
  CLOVE_PROF_SCOPE(prof::kFlight);
  telemetry::FlightSummary fs = fr->summary(tb.simulator().now());
  const std::string dir = telemetry::json_out_dir();
  if (dir.empty()) return fs;
  telemetry::Json doc = fs.to_json();
  doc.set("scheme", telemetry::Json(stem));
  telemetry::Json path_names = telemetry::Json::object();
  for (const telemetry::PathUsage& pu : fs.paths) {
    path_names.set(std::to_string(pu.via),
                   telemetry::Json(fr->node_name(pu.via)));
  }
  doc.set("node_names", std::move(path_names));
  telemetry::write_json_artifact(dir, "FLIGHT_" + stem, doc);
  telemetry::write_text_artifact(dir, "flight_" + stem + "_journeys.jsonl",
                                 fr->journeys_jsonl());
  telemetry::write_text_artifact(dir, "flight_" + stem + "_flows.jsonl",
                                 fr->flows_jsonl());
  if (tb.flight_watch() != nullptr) {
    telemetry::write_text_artifact(dir, "flight_" + stem + "_timeseries.csv",
                                   tb.flight_watch()->to_csv());
  }
  return fs;
}

double run_incast_experiment(const ExperimentConfig& cfg,
                             const workload::IncastConfig& wl) {
  telemetry::current_scope().begin_run();
  Testbed tb(cfg);
  tb.start_discovery();

  // One client on leaf 1; responders are the leaf-2 servers.
  workload::IncastWorkload incast(tb.simulator(), tb.workload_config(wl),
                                  tb.clients()[0], tb.servers());
  incast.start([&] { tb.simulator().stop(); });
  tb.simulator().run(cfg.max_sim_time);
  return incast.goodput_gbps();
}

// ---------------------------------------------------------------------------
// Profiles and bench scale
// ---------------------------------------------------------------------------

ExperimentConfig make_testbed_profile() {
  ExperimentConfig cfg;
  cfg.tcp.min_rto = 200 * sim::kMillisecond;  // stock Linux
  cfg.tcp.ecn = true;  // standard-but-unmodified stack; see DESIGN.md
  return cfg;
}

ExperimentConfig make_ns2_profile() {
  ExperimentConfig cfg;
  cfg.tcp.min_rto = 5 * sim::kMillisecond;  // simulation profile (§6)
  cfg.tcp.ecn = true;
  return cfg;
}

BenchScale BenchScale::from_env() {
  auto env_int = [](const char* name, int def) {
    const char* v = std::getenv(name);
    if (v == nullptr) return def;
    const int n = std::atoi(v);
    return n > 0 ? n : def;
  };
  BenchScale s;
  s.jobs_per_conn = env_int("CLOVE_JOBS", 40);
  s.seeds = env_int("CLOVE_SEEDS", 1);
  s.conns_per_client = env_int("CLOVE_CONNS", 2);
  return s;
}

}  // namespace clove::harness
