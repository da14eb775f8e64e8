// Macro-benchmark for the per-hop forwarding datapath: drives packets
// end-to-end across multi-switch fabrics (3-tier fat-tree under ECMP,
// leaf-spine under LetFlow and CONGA) and reports packets/s, ns per switch
// hop, simulator events/s and exact heap allocations per packet in steady
// state. This is the fabric-scale counterpart of bench_micro_datapath: the
// micro bench isolates single operations, this one prices a full forwarded
// packet (route lookup + ECMP/flowlet decision + queueing at every hop).
//
// With CLOVE_JSON_OUT=<dir> set, results land in <dir>/BENCH_fabric.json —
// the perf baseline the bench-smoke CI job diffs against.
//
// Scale knob: CLOVE_FABRIC_ROUNDS (default 256) injection rounds per
// scenario; each round sends one batch from every host.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fabric_driver.hpp"
#include "net/conga_switch.hpp"
#include "net/letflow_switch.hpp"
#include "prof/prof.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/scope.hpp"

// --- allocation counting ---------------------------------------------------
// Program-wide operator new/delete override (same scheme as
// bench_micro_datapath) so steady-state allocs/packet is exact, not sampled.

namespace {
std::uint64_t g_alloc_count{0};

std::uint64_t alloc_count() { return g_alloc_count; }

void* counted_alloc(std::size_t n) {
  ++g_alloc_count;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace clove;

using bench::SinkHost;
using bench::TrafficDriver;

int rounds_from_env() { return bench::env_int("CLOVE_FABRIC_ROUNDS", 256); }

/// Packets injected per source host per round. The default keeps the
/// in-flight population (batch x hosts x Packet size) inside the L2 working
/// set, so the bench prices the forwarding datapath rather than DRAM: at
/// large batches every hop misses on its packet line and all datapaths
/// converge to memory latency. Raise it (CLOVE_FABRIC_BATCH) to measure the
/// DRAM-bound incast regime instead.
int batch_from_env() { return bench::env_int("CLOVE_FABRIC_BATCH", 8); }

struct ScenarioResult {
  double pkts_per_sec{0.0};
  double ns_per_hop{0.0};
  double events_per_sec{0.0};
  double allocs_per_pkt{0.0};
  std::uint64_t packets{0};
  std::uint64_t hops{0};
};

ScenarioResult measure(sim::Simulator& sim, net::Topology& topo,
                       TrafficDriver& driver, int rounds) {
  driver.batch = batch_from_env();
  // Warm the packet pool, event slab, routes and flow tables.
  for (int r = 0; r < 8; ++r) driver.run_round(sim);

  auto hops_now = [&topo] {
    std::uint64_t h = 0;
    for (const net::Switch* sw : topo.switches()) h += sw->stats().forwarded;
    return h;
  };

  const std::uint64_t hops0 = hops_now();
  const std::uint64_t events0 = sim.events_processed();
  const std::uint64_t allocs0 = alloc_count();
  const auto t0 = std::chrono::steady_clock::now();

  std::uint64_t packets = 0;
  for (int r = 0; r < rounds; ++r) packets += driver.run_round(sim);

  const auto t1 = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(t1 - t0).count();

  ScenarioResult out;
  out.packets = packets;
  out.hops = hops_now() - hops0;
  out.pkts_per_sec = static_cast<double>(packets) / wall_s;
  out.ns_per_hop = wall_s * 1e9 / static_cast<double>(out.hops);
  out.events_per_sec =
      static_cast<double>(sim.events_processed() - events0) / wall_s;
  out.allocs_per_pkt = static_cast<double>(alloc_count() - allocs0) /
                       static_cast<double>(packets);
  return out;
}

void report(const std::string& name, const ScenarioResult& r) {
  std::printf(
      "%-22s %10.3f Mpkts/s   %7.1f ns/hop   %8.2f Mevents/s   "
      "%.4f allocs/pkt   (%llu pkts, %llu hops)\n",
      name.c_str(), r.pkts_per_sec / 1e6, r.ns_per_hop, r.events_per_sec / 1e6,
      r.allocs_per_pkt, static_cast<unsigned long long>(r.packets),
      static_cast<unsigned long long>(r.hops));
  if (bench::Artifact* a = bench::Artifact::current()) {
    a->add_value(name + ".pkts_per_sec", r.pkts_per_sec);
    a->add_value(name + ".ns_per_hop", r.ns_per_hop);
    a->add_value(name + ".events_per_sec", r.events_per_sec);
    a->add_value(name + ".allocs_per_pkt", r.allocs_per_pkt);
  }
}

/// 3-tier fat-tree (k=4), plain ECMP switches, all-pairs cross-pod traffic:
/// 5 switch hops per packet (edge, agg, core, agg, edge).
void scenario_fat_tree(int rounds) {
  sim::Simulator sim;
  net::Topology topo(sim);
  TrafficDriver driver = bench::cross_pod_driver(topo, 4, batch_from_env());
  report("fat_tree_ecmp", measure(sim, topo, driver, rounds));
}

/// Leaf-spine whose leaves are LetFlow (flowlet table) or CONGA (flowlet
/// table + congestion metric tables + per-packet header stamping) switches,
/// with every host sending to its peer on the other leaf: 3 switch hops per
/// packet.
void scenario_leaf_spine(bool conga, int rounds) {
  sim::Simulator sim;
  net::Topology topo(sim);
  net::LeafSpineConfig cfg;
  cfg.hosts_per_leaf = 8;
  cfg.conga_metric = conga;
  net::LeafSpine net = net::build_leaf_spine(
      topo, cfg,
      [](net::Topology& t, const std::string& name, int /*leaf*/) {
        return t.add_host<SinkHost>(name);
      },
      [&sim, conga](net::NodeId id, std::string name,
                    int leaf_idx) -> std::unique_ptr<net::Switch> {
        if (leaf_idx < 0) {
          return std::make_unique<net::Switch>(sim, id, std::move(name));
        }
        if (conga) {
          return std::make_unique<net::CongaLeafSwitch>(sim, id,
                                                        std::move(name));
        }
        return std::make_unique<net::LetFlowSwitch>(sim, id, std::move(name));
      });
  if (conga) net::configure_conga_leaves(net);

  TrafficDriver driver;
  for (std::size_t i = 0; i < net.hosts_by_leaf[0].size(); ++i) {
    driver.sources.push_back(net.hosts_by_leaf[0][i]);
    driver.dests.push_back(net.hosts_by_leaf[1][i]);
    driver.sources.push_back(net.hosts_by_leaf[1][i]);
    driver.dests.push_back(net.hosts_by_leaf[0][i]);
  }
  report(conga ? "leaf_spine_conga" : "leaf_spine_letflow",
         measure(sim, topo, driver, rounds));
}

/// Price the flight recorder against the forwarding datapath: the same
/// fat-tree traffic is driven round-by-round under three interleaved arms —
/// no telemetry scope at all (the baseline every other scenario measures),
/// a scope whose recorder mode is kOff (the disabled recorder: hooks reduce
/// to one thread-local load), and a recorder attached in sampled mode with
/// a sample period far beyond the run (the attached-but-idle cost: TLS load
/// plus a uid modulo per hop). Interleaving pairs the arms against the same
/// machine state, so the exported ratios isolate the recorder's cost from
/// run-to-run drift; bench_check.py fails the build if a ratio drops more
/// than 2 points below its committed baseline, or if either instrumented
/// arm starts allocating per packet.
void scenario_flight_guard(int rounds) {
  sim::Simulator sim;
  net::Topology topo(sim);
  TrafficDriver driver = bench::cross_pod_driver(topo, 4, batch_from_env());
  for (int r = 0; r < 8; ++r) driver.run_round(sim);  // warm pools/tables

  telemetry::ScopeSettings off_st;
  off_st.enabled = false;
  off_st.flight.mode = telemetry::FlightMode::kOff;
  telemetry::Scope off_scope(off_st);

  telemetry::ScopeSettings idle_st;
  idle_st.enabled = false;
  idle_st.flight.mode = telemetry::FlightMode::kSampled;
  idle_st.flight.sample_every = 1ull << 40;  // never samples within the run
  telemetry::Scope idle_scope(idle_st);

  constexpr int kArms = 3;
  const char* arm_name[kArms] = {"baseline", "recorder_off", "recorder_idle"};
  double wall[kArms] = {};
  std::uint64_t pkts[kArms] = {};
  std::uint64_t allocs[kArms] = {};
  for (int r = 0; r < rounds; ++r) {
    for (int arm = 0; arm < kArms; ++arm) {
      std::optional<telemetry::ScopeGuard> guard;
      if (arm == 1) guard.emplace(off_scope);
      if (arm == 2) guard.emplace(idle_scope);
      const std::uint64_t a0 = alloc_count();
      const auto t0 = std::chrono::steady_clock::now();
      pkts[arm] += driver.run_round(sim);
      const auto t1 = std::chrono::steady_clock::now();
      wall[arm] += std::chrono::duration<double>(t1 - t0).count();
      allocs[arm] += alloc_count() - a0;
    }
  }

  const double base_rate = static_cast<double>(pkts[0]) / wall[0];
  bench::Artifact* a = bench::Artifact::current();
  for (int arm = 0; arm < kArms; ++arm) {
    const double rate = static_cast<double>(pkts[arm]) / wall[arm];
    const double ratio = rate / base_rate;
    const double apk = static_cast<double>(allocs[arm]) /
                       static_cast<double>(pkts[arm]);
    std::printf("flight_guard.%-14s %10.3f Mpkts/s   ratio %.4f   "
                "%.4f allocs/pkt\n",
                arm_name[arm], rate / 1e6, ratio, apk);
    if (a != nullptr && arm > 0) {
      const std::string prefix = std::string("flight_guard.") + arm_name[arm];
      a->add_value(prefix + "_ratio", ratio);
      a->add_value(prefix + ".allocs_per_pkt", apk);
    }
  }
}

/// Price the engine profiler the same way scenario_flight_guard prices the
/// flight recorder: identical fat-tree traffic under three interleaved arms —
/// no profiler installed (baseline), CLOVE_PROF=off (also no profiler: the
/// hooks compile to one thread-local load + branch, so this arm pins "off
/// costs zero" and doubles as the noise floor), and a kSummary profiler
/// installed (two clock reads per scope). Interleaving cancels machine drift,
/// so bench_check.py can hold the off ratio to an absolute 2-point band and
/// both instrumented arms to zero allocations per packet.
void scenario_prof_guard(int rounds) {
  sim::Simulator sim;
  net::Topology topo(sim);
  TrafficDriver driver = bench::cross_pod_driver(topo, 4, batch_from_env());
  for (int r = 0; r < 8; ++r) driver.run_round(sim);  // warm pools/tables

  // Arm 2's profiler, warmed once so first-use effects (clock calibration,
  // branch history) don't land inside the measured rounds.
  prof::Profiler summary_prof(prof::Mode::kSummary);
  {
    prof::InstallGuard warm(&summary_prof);
    driver.run_round(sim);
  }

  constexpr int kArms = 3;
  const char* arm_name[kArms] = {"baseline", "prof_off", "prof_summary"};
  double wall[kArms] = {};
  std::uint64_t pkts[kArms] = {};
  std::uint64_t allocs[kArms] = {};
  for (int r = 0; r < rounds; ++r) {
    for (int arm = 0; arm < kArms; ++arm) {
      // Arms 0/1 uninstall whatever the Artifact's session guard installed;
      // "off" IS the uninstalled state, which is exactly the claim under test.
      prof::InstallGuard guard(arm == 2 ? &summary_prof : nullptr);
      const std::uint64_t a0 = alloc_count();
      const auto t0 = std::chrono::steady_clock::now();
      pkts[arm] += driver.run_round(sim);
      const auto t1 = std::chrono::steady_clock::now();
      wall[arm] += std::chrono::duration<double>(t1 - t0).count();
      allocs[arm] += alloc_count() - a0;
    }
  }

  const double base_rate = static_cast<double>(pkts[0]) / wall[0];
  bench::Artifact* a = bench::Artifact::current();
  for (int arm = 0; arm < kArms; ++arm) {
    const double rate = static_cast<double>(pkts[arm]) / wall[arm];
    const double ratio = rate / base_rate;
    const double apk = static_cast<double>(allocs[arm]) /
                       static_cast<double>(pkts[arm]);
    std::printf("prof_guard.%-16s %10.3f Mpkts/s   ratio %.4f   "
                "%.4f allocs/pkt\n",
                arm_name[arm], rate / 1e6, ratio, apk);
    if (a != nullptr && arm > 0) {
      const std::string prefix = std::string("prof_guard.") + arm_name[arm];
      a->add_value(prefix + "_ratio", ratio);
      a->add_value(prefix + ".allocs_per_pkt", apk);
    }
  }
}

}  // namespace

int main() {
  const auto scale = harness::BenchScale::from_env();
  bench::Artifact artifact("BENCH_fabric",
                           "fabric forwarding perf baseline (macro)", scale);
  // Telemetry counters would price the instrumentation, not the datapath;
  // the figure benches measure that separately.
  telemetry::current_scope().set_enabled(false);

  const int rounds = rounds_from_env();
  std::printf("== fabric forwarding macro-bench ==\n");
  std::printf("rounds: %d per scenario (CLOVE_FABRIC_ROUNDS to change)\n\n",
              rounds);
  scenario_fat_tree(rounds);
  scenario_leaf_spine(/*conga=*/false, rounds);
  scenario_leaf_spine(/*conga=*/true, rounds);
  scenario_flight_guard(rounds);
  scenario_prof_guard(rounds);
  return 0;
}
