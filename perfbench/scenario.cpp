#include "scenario.hpp"

#include <algorithm>
#include <cstdio>

#include "lb/ecmp.hpp"
#include "net/fat_tree.hpp"
#include "net/packet_pool.hpp"
#include "telemetry/hub.hpp"

namespace perfbench {

const std::vector<WorkloadSpec>& workloads() {
  // name, fat_tree, hybrid, jobs/conn, conns/client, load, simulations
  static const std::vector<WorkloadSpec> kAll = {
      {"testbed_asym", false, false, 10, 2, 0.7, 16},
      {"fattree8_hybrid", true, true, 60, 2, 0.6, 16},
  };
  return kAll;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::uint64_t sub_seed(std::uint64_t seed, int i) {
  return seed * 16 + static_cast<std::uint64_t>(i);
}

WorkloadSpec packet_exact(WorkloadSpec spec) {
  spec.hybrid = false;
  return spec;
}

std::uint64_t Digest::hash() const {
  // FNV-1a over the fields' bytes: equal digests hash equal, and a one-bit
  // change in any simulated output shows.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  mix(&events, sizeof events);
  mix(&jobs, sizeof jobs);
  mix(&mean_fct_s, sizeof mean_fct_s);
  mix(&p99_fct_s, sizeof p99_fct_s);
  mix(&drops, sizeof drops);
  mix(&ecn_marks, sizeof ecn_marks);
  return h;
}

std::string Digest::to_string() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "events=%llu jobs=%llu mean_fct=%.17g p99_fct=%.17g "
                "drops=%llu ecn=%llu",
                static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(jobs), mean_fct_s, p99_fct_s,
                static_cast<unsigned long long>(drops),
                static_cast<unsigned long long>(ecn_marks));
  return buf;
}

harness::ExperimentConfig Scenario::testbed_config(const WorkloadSpec& spec,
                                                   std::uint64_t seed) {
  harness::ExperimentConfig cfg = harness::make_testbed_profile();
  cfg.scheme = harness::Scheme::kCloveEcn;
  cfg.asymmetric = true;
  cfg.seed = seed;
  cfg.traffic_start = kTrafficStart;
  cfg.max_sim_time = kMaxSimTime;
  // Pinned, not read from CLOVE_HYBRID.
  cfg.hybrid = hybrid::HybridConfig{};
  cfg.hybrid.enabled = spec.hybrid;
  return cfg;
}

workload::ClientServerConfig Scenario::workload_config(
    const WorkloadSpec& spec) {
  workload::ClientServerConfig w;
  w.conns_per_client = spec.conns_per_client;
  w.jobs_per_conn = spec.jobs_per_conn;
  w.load = spec.load;
  return w;
}

Scenario::Scenario(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec), seed_(seed) {
  // run_fct_experiment scopes the telemetry registry to each run.
  telemetry::hub().begin_run();
  if (!spec.fat_tree) {
    testbed_ = std::make_unique<harness::Testbed>(testbed_config(spec, seed));
    sim_ = &testbed_->simulator();
    topo_ = &testbed_->topology();
    engine_ = testbed_->hybrid();
    clients_ = testbed_->clients();
    servers_ = testbed_->servers();
    // As run_fct_experiment prices offered load: the smaller of the fabric
    // cut and the clients' aggregate access bandwidth.
    const net::LeafSpineConfig& t = testbed_->config().topo;
    bisection_bytes_per_sec_ =
        std::min(sim::gbps_to_bytes_per_sec(t.fabric_gbps) * t.n_spines *
                     t.links_per_pair,
                 sim::gbps_to_bytes_per_sec(t.host_gbps) * t.hosts_per_leaf);
    return;
  }

  own_sim_ = std::make_unique<sim::Simulator>(seed);
  own_topo_ = std::make_unique<net::Topology>(*own_sim_);
  sim_ = own_sim_.get();
  topo_ = own_topo_.get();
  net::FatTreeConfig ft_cfg;
  ft_cfg.k = 8;
  const transport::TcpConfig tcp = harness::make_testbed_profile().tcp;
  net::FatTree ft = net::build_fat_tree(
      *topo_, ft_cfg, [this, tcp](net::Topology& t, const std::string& name, int) {
        overlay::HypervisorConfig h;
        h.tcp = tcp;
        return static_cast<net::Node*>(t.add_host<overlay::Hypervisor>(
            name, *sim_, h, std::make_unique<lb::EcmpPolicy>()));
      });
  // Cross-pod traffic: the lower half of the pods are clients, the upper
  // half servers, so every job crosses the core.
  const int pods = ft.n_pods();
  for (int pod = 0; pod < pods; ++pod) {
    auto& side = pod < pods / 2 ? clients_ : servers_;
    for (net::Node* h : ft.hosts_by_pod[static_cast<std::size_t>(pod)]) {
      side.push_back(static_cast<overlay::Hypervisor*>(h));
    }
  }
  // The fat-tree is full-bisection, so the clients' access links are the
  // cut offered load is priced against.
  bisection_bytes_per_sec_ = sim::gbps_to_bytes_per_sec(ft_cfg.host_gbps) *
                             static_cast<double>(clients_.size());
  if (spec.hybrid) {
    hybrid::HybridConfig hc;
    hc.enabled = true;
    own_engine_ = std::make_unique<hybrid::Engine>(*sim_, hc);
    engine_ = own_engine_.get();
    for (const auto& l : topo_->links()) engine_->add_link(l.get());
    for (net::Node* h : topo_->hosts()) {
      static_cast<overlay::Hypervisor*>(h)->set_hybrid(engine_);
    }
  }
}

Scenario::~Scenario() = default;

void Scenario::start_discovery() {
  // The fat-tree's ECMP edge needs no paths.
  if (testbed_) testbed_->start_discovery();
}

void Scenario::start_workload() {
  workload::ClientServerConfig w = workload_config(spec_);
  const harness::ExperimentConfig cfg = testbed_config(spec_, seed_);
  // The same derivation run_fct_experiment applies, so a leaf-spine run is
  // that function's run split at traffic start.
  w.tcp = cfg.tcp;
  w.start_time = kTrafficStart;
  w.seed = seed_ * 977 + 3;
  w.bisection_bytes_per_sec = bisection_bytes_per_sec_;
  wl_ = std::make_unique<workload::ClientServerWorkload>(*sim_, w, clients_,
                                                         servers_);
  wl_->start([this] { sim_->stop(); });
}

void Scenario::run_to_traffic_start() {
  sim_->run(kTrafficStart - 1);
  discovery_events_ = sim_->events_processed();
}

void Scenario::run_traffic() { sim_->run(kMaxSimTime); }

DiscoveryReport Scenario::discovery_report() {
  DiscoveryReport r;
  auto scan = [&r](const std::vector<overlay::Hypervisor*>& from,
                   const std::vector<overlay::Hypervisor*>& to) {
    for (overlay::Hypervisor* h : from) {
      if (!h->policy().needs_discovery()) continue;
      for (overlay::Hypervisor* peer : to) {
        ++r.pairs;
        const overlay::PathSet* ps = h->discovery().paths(peer->ip());
        if (ps == nullptr || ps->size() == 0) {
          ++r.pairs_missing;
        } else {
          r.paths += ps->size();
        }
      }
    }
  };
  scan(clients_, servers_);
  scan(servers_, clients_);
  return r;
}

Outcome Scenario::collect() {
  workload::ClientServerWorkload& wl = *wl_;
  Outcome o;
  stats::FctRecorder& fct = wl.fct();
  o.digest.events = sim_->events_processed();
  o.digest.jobs = wl.jobs_done();
  o.digest.mean_fct_s = fct.all().mean();
  o.digest.p99_fct_s = fct.all().percentile(99);
  o.jobs_total = wl.jobs_total();
  o.bytes_offered = wl.bytes_offered();
  o.mice_mean_fct_s = fct.mice().mean();
  o.sim_traffic_s = sim::to_seconds(sim_->now() - kTrafficStart);
  o.discovery_events = discovery_events_;
  o.traffic_events = o.digest.events - discovery_events_;
  o.queue_hwm = sim_->queue_high_water();
  for (const auto& l : topo_->links()) {
    o.tx_packets += l->stats().tx_packets;
    o.digest.drops += l->stats().drops_overflow;
    o.digest.ecn_marks += l->stats().ecn_marks;
  }
  auto& pool = net::PacketPool::of(*sim_);
  o.pool_allocated = pool.allocated();
  o.pool_reused = pool.reused();
  for (net::Node* n : topo_->hosts()) {
    auto* h = static_cast<overlay::Hypervisor*>(n);
    o.probes_sent += h->discovery().probes_sent();
    o.encapped += h->stats().encapped;
    o.feedback_received += h->stats().feedback_received;
    o.ce_intercepted += h->stats().ce_intercepted;
  }
  o.paths_discovered = discovery_report().paths;
  o.transport = wl.transport_totals();
  if (engine_ != nullptr) o.hybrid = engine_->stats();
  return o;
}

}  // namespace perfbench
