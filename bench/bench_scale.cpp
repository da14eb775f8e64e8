// Scale observatory: how does the engine hold up as the fabric grows?
//
// Runs the same cross-pod ECMP traffic over a k=4 fat-tree (16 hosts, 20
// switches) and a k=8 fat-tree (128 hosts, 80 switches) and reports, per
// topology: hosts, wall-clock, simulator events/s, event-queue high-water
// mark, and process peak RSS. A final interleaved phase alternates k=4 and
// k=8 rounds so the exported per-event slowdown ratio
// (scale.k8_vs_k4_events_ratio) is a same-run A/B comparison that cancels
// machine drift. Attribution rounds then run under the engine profiler
// (clove::prof) and print the top-5 time sinks; the full self-profile lands
// in the BENCH_scale.json artifact.
//
// CI (the scale-smoke job) diffs the artifact against the committed
// BENCH_scale.json with scripts/bench_check.py: events/s floors, RSS
// ceilings, and the interleaved ratio band guard the engine's scaling
// ceiling.
//
// Scale knobs: CLOVE_SCALE_ROUNDS (default 64) measurement rounds per
// topology; CLOVE_SCALE_BATCH (default 4) packets per host per round.
// Profiling defaults to CLOVE_PROF=summary here (set CLOVE_PROF=off/full to
// override) so the artifact always carries a self-profile section.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fabric_driver.hpp"
#include "harness/shard_runner.hpp"
#include "hybrid/hybrid.hpp"
#include "net/shard.hpp"
#include "prof/prof.hpp"
#include "telemetry/hub.hpp"
#include "workload/flow_size.hpp"

namespace {

using namespace clove;

using bench::TrafficDriver;

int rounds_from_env() { return bench::env_int("CLOVE_SCALE_ROUNDS", 64); }
int batch_from_env() { return bench::env_int("CLOVE_SCALE_BATCH", 4); }

/// One k-ary fat-tree with cross-pod all-hosts traffic, self-contained so
/// two scales can coexist for the interleaved ratio phase.
struct Fabric {
  sim::Simulator sim;
  net::Topology topo{sim};
  TrafficDriver driver;
  int hosts{0};

  explicit Fabric(int k)
      : driver(bench::cross_pod_driver(topo, k, batch_from_env())),
        hosts(static_cast<int>(driver.sources.size())) {
    for (int r = 0; r < 8; ++r) driver.run_round(sim);  // warm pools/tables
  }
};

/// The same fabric and traffic over the sharded engine (DESIGN.md §11):
/// per-pod event shards advanced in conservative lookahead windows by a
/// harness::ShardRunner. Construction decides attribution — a runner built
/// while the session profiler is installed profiles each shard separately
/// and deposits the per-shard copies (plus the kShardSync barrier-wait
/// share) into the session profile when destroyed.
struct ShardedFabric {
  sim::Simulator sim;
  net::ShardDomain dom;
  net::Topology topo{sim};
  TrafficDriver driver;
  std::vector<std::vector<std::pair<net::Node*, net::Node*>>> pairs_by_shard_;
  std::unique_ptr<harness::ShardRunner> runner;
  int hosts{0};

  ShardedFabric(int k, int shards, unsigned threads = 0)
      : dom(sim, shards, /*seed=*/1) {
    topo.set_shard_domain(&dom);
    driver = bench::cross_pod_driver(topo, k, batch_from_env());
    hosts = static_cast<int>(driver.sources.size());
    pairs_by_shard_.resize(static_cast<std::size_t>(dom.shard_count()));
    for (std::size_t i = 0; i < driver.sources.size(); ++i) {
      const int s = topo.shard_of(driver.sources[i]);
      pairs_by_shard_[static_cast<std::size_t>(s)].push_back(
          {driver.sources[i], driver.dests[i]});
    }
    runner = std::make_unique<harness::ShardRunner>(dom, threads);
    for (int r = 0; r < 8; ++r) run_round();  // warm pools/tables
  }

  /// Same injection pattern as TrafficDriver::run_round, pre-scheduled as
  /// one event per shard (one tick past every shard clock so no shard sees
  /// an event in its past — injecting inline like the serial driver would
  /// enqueue at divergent shard-local clocks), then drained through the
  /// window loop.
  std::uint64_t run_round() {
    sim::Time t = 0;
    for (int s = 0; s < dom.shard_count(); ++s) {
      t = std::max(t, dom.sim(s).now());
    }
    t += 1;
    std::uint64_t injected = 0;
    const std::uint32_t pc = driver.port_cycle;
    const int batch = driver.batch;
    for (int s = 0; s < dom.shard_count(); ++s) {
      const auto& pairs = pairs_by_shard_[static_cast<std::size_t>(s)];
      if (pairs.empty()) continue;
      sim::Simulator& ssim = dom.sim(s);
      injected += pairs.size() * static_cast<std::uint64_t>(batch);
      ssim.schedule_at(t, [&pairs, pc, batch, &ssim] {
        for (const auto& [src, dst] : pairs) {
          for (int b = 0; b < batch; ++b) {
            src->port(0)->enqueue(TrafficDriver::make(
                ssim, src, dst, pc + static_cast<std::uint32_t>(b)));
          }
        }
      });
    }
    driver.port_cycle += 7;
    runner->run(sim::kTimeNever);  // drain every shard, like sim.run()
    return injected;
  }

  [[nodiscard]] std::uint64_t events_processed() {
    std::uint64_t e = 0;
    for (int s = 0; s < dom.shard_count(); ++s) {
      e += dom.sim(s).events_processed();
    }
    return e;
  }
  [[nodiscard]] std::size_t queue_high_water() {
    std::size_t q = 0;
    for (int s = 0; s < dom.shard_count(); ++s) {
      q = std::max(q, dom.sim(s).queue_high_water());
    }
    return q;
  }
};

struct HybridRun {
  double wall_s{0.0};
  harness::ExperimentResult r;
};

/// The §5 web-search RPC workload over TCP/ECMP on a k=8 fat-tree of
/// hypervisors — the elephant-heavy TCP arm the hybrid flow/packet engine
/// (DESIGN.md §12) exists for. The off/on runs differ only in `hybrid_on`,
/// a same-process A/B with identical seeds and workloads.
HybridRun run_hybrid_arm(const hybrid::HybridConfig& hc, bool hybrid_on,
                         const harness::BenchScale& scale) {
  harness::ExperimentConfig cfg = harness::make_testbed_profile();
  cfg.scheme = harness::Scheme::kEcmp;
  cfg.fat_tree_k = 8;
  // The committed hybrid.* rows were measured with traffic from 50 ms.
  cfg.traffic_start = 50 * sim::kMillisecond;
  cfg.hybrid = hc;
  cfg.hybrid.enabled = hybrid_on;
  workload::ClientServerConfig w;
  w.conns_per_client = scale.conns_per_client;
  w.jobs_per_conn = scale.jobs_per_conn;
  w.load = 0.6;
  w.seed = 42;
  const auto t0 = std::chrono::steady_clock::now();
  HybridRun run;
  run.r = harness::run_fct_experiment(cfg, w);
  run.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  return run;
}

/// min(a/b, b/a): 1.0 = identical, smaller = farther apart. The committed
/// floor pins how closely the hybrid run must track the packet-exact one.
double match_ratio(double a, double b) {
  if (a <= 0.0 || b <= 0.0) return a == b ? 1.0 : 0.0;
  return std::min(a / b, b / a);
}

struct PhaseResult {
  double wall_s{0.0};
  double events_per_sec{0.0};
  std::uint64_t events{0};
  std::uint64_t packets{0};
};

/// Measured rounds run UNPROFILED (InstallGuard below) so the committed
/// events/s floors price the engine, not the instrumentation.
PhaseResult measure(Fabric& f, int rounds) {
  prof::InstallGuard unprofiled(nullptr);
  const std::uint64_t events0 = f.sim.events_processed();
  const auto t0 = std::chrono::steady_clock::now();
  PhaseResult out;
  for (int r = 0; r < rounds; ++r) out.packets += f.driver.run_round(f.sim);
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.events = f.sim.events_processed() - events0;
  out.events_per_sec = static_cast<double>(out.events) / out.wall_s;
  return out;
}

void report_topo(const std::string& tag, const Fabric& f, const PhaseResult& r,
                 double rss_mb) {
  std::printf(
      "%-9s %4d hosts   %7.3f s wall   %8.2f Mevents/s   "
      "queue hwm %6zu   peak rss %7.1f MB\n",
      tag.c_str(), f.hosts, r.wall_s, r.events_per_sec / 1e6,
      f.sim.queue_high_water(), rss_mb);
  if (bench::Artifact* a = bench::Artifact::current()) {
    a->add_value(tag + ".hosts", static_cast<double>(f.hosts));
    a->add_value(tag + ".events_per_sec", r.events_per_sec);
    a->add_value(tag + ".rss_mb", rss_mb);
    a->add_value(tag + ".queue_hwm",
                 static_cast<double>(f.sim.queue_high_water()));
    a->note_engine(r.events, f.sim.queue_high_water());
  }
}

}  // namespace

int main() {
  // Profilable by default: the artifact's self-profile section and the
  // top-sink table are this bench's point. An explicit CLOVE_PROF (even
  // "off") still wins.
  setenv("CLOVE_PROF", "summary", /*overwrite=*/0);

  const auto scale = harness::BenchScale::from_env();
  bench::Artifact artifact("BENCH_scale",
                           "engine scaling ceiling (k=4 vs k=8 fat-tree)",
                           scale);
  // The CLOVE_SHARDS / CLOVE_HYBRID gated phases make the blended process
  // rate leg-dependent in CI's matrix; the per-topology scale_k*.events_per_sec
  // rows are the throughput guard for this bench.
  artifact.set_mirror_engine_rate(false);
  telemetry::current_scope().set_enabled(false);

  const int rounds = rounds_from_env();
  std::printf("== engine scale observatory ==\n");
  std::printf(
      "rounds: %d per topology, batch %d pkts/host "
      "(CLOVE_SCALE_ROUNDS / CLOVE_SCALE_BATCH to change)\n\n",
      rounds, batch_from_env());

  // Peak RSS is monotonic over the process, so each scale is built and
  // measured before the next is constructed: scale_k4.rss_mb bounds the
  // 16-host engine alone, scale_k8.rss_mb the whole process at 128 hosts.
  auto k4 = std::make_unique<Fabric>(4);
  const PhaseResult r4 = measure(*k4, rounds);
  const double rss4 = prof::peak_rss_mb();
  report_topo("scale_k4", *k4, r4, rss4);

  auto k8 = std::make_unique<Fabric>(8);
  const PhaseResult r8 = measure(*k8, rounds);
  const double rss8 = prof::peak_rss_mb();
  report_topo("scale_k8", *k8, r8, rss8);

  // Interleaved per-event slowdown: alternate k4/k8 rounds against the same
  // machine state so the ratio isolates the topology-scaling cost.
  {
    prof::InstallGuard unprofiled(nullptr);
    double wall[2] = {};
    std::uint64_t events[2] = {};
    const int ratio_rounds = rounds / 2 > 0 ? rounds / 2 : 1;
    Fabric* fabs[2] = {k4.get(), k8.get()};
    for (int r = 0; r < ratio_rounds; ++r) {
      for (int arm = 0; arm < 2; ++arm) {
        Fabric& f = *fabs[arm];
        const std::uint64_t e0 = f.sim.events_processed();
        const auto t0 = std::chrono::steady_clock::now();
        f.driver.run_round(f.sim);
        const auto t1 = std::chrono::steady_clock::now();
        wall[arm] += std::chrono::duration<double>(t1 - t0).count();
        events[arm] += f.sim.events_processed() - e0;
      }
    }
    const double eps4 = static_cast<double>(events[0]) / wall[0];
    const double eps8 = static_cast<double>(events[1]) / wall[1];
    const double ratio = eps8 / eps4;
    std::printf("\nscale.k8_vs_k4_events_ratio %.4f  "
                "(interleaved; 1.0 = no per-event slowdown at 8x hosts)\n",
                ratio);
    if (bench::Artifact* a = bench::Artifact::current()) {
      a->add_value("scale.k8_vs_k4_events_ratio", ratio);
    }
  }

  // Sharded engine arms (DESIGN.md §11): two same-run A/B comparisons
  // against the serial k=8 fabric. CLOVE_SHARDS=1 must price at parity —
  // below two shards the fabric is built without channels and the runner
  // degenerates to one inline Simulator::run, so the overhead ratio sits
  // at ~1.0. The CLOVE_SHARDS=4 arm records the honest wall-clock speedup
  // for identical round counts: on a single-core host the windowing
  // overhead puts it below 1.0 and the committed floor tracks that
  // machine; multi-core runners clear it with headroom (EXPERIMENTS.md
  // E-shard records the core-count dependence).
  {
    prof::InstallGuard unprofiled(nullptr);
    const int ratio_rounds = rounds / 2 > 0 ? rounds / 2 : 1;
    struct ArmTimes {
      double wall_serial{0.0};
      double wall_shard{0.0};
      std::uint64_t ev_serial{0};
      std::uint64_t ev_shard{0};
    };
    auto interleave = [&](ShardedFabric& sf) {
      ArmTimes at;
      for (int r = 0; r < ratio_rounds; ++r) {
        {
          const std::uint64_t e0 = k8->sim.events_processed();
          const auto t0 = std::chrono::steady_clock::now();
          k8->driver.run_round(k8->sim);
          const auto t1 = std::chrono::steady_clock::now();
          at.wall_serial += std::chrono::duration<double>(t1 - t0).count();
          at.ev_serial += k8->sim.events_processed() - e0;
        }
        {
          const std::uint64_t e0 = sf.events_processed();
          const auto t0 = std::chrono::steady_clock::now();
          sf.run_round();
          const auto t1 = std::chrono::steady_clock::now();
          at.wall_shard += std::chrono::duration<double>(t1 - t0).count();
          at.ev_shard += sf.events_processed() - e0;
        }
      }
      return at;
    };

    {
      ShardedFabric s1(8, /*shards=*/1);
      const ArmTimes a = interleave(s1);
      const double ratio = (static_cast<double>(a.ev_shard) / a.wall_shard) /
                           (static_cast<double>(a.ev_serial) / a.wall_serial);
      std::printf("\nscale.shard1_overhead_ratio %.4f  "
                  "(interleaved; 1.0 = CLOVE_SHARDS=1 is free)\n",
                  ratio);
      if (bench::Artifact* a2 = bench::Artifact::current()) {
        a2->add_value("scale.shard1_overhead_ratio", ratio);
      }
    }
    {
      ShardedFabric s4(8, /*shards=*/4);
      const ArmTimes a = interleave(s4);
      const double speedup = a.wall_serial / a.wall_shard;
      std::printf("scale.k8_shard4_speedup_ratio %.4f  "
                  "(interleaved wall-clock, %d shards x %u workers, "
                  "%llu windows; >1 = sharding wins on this machine)\n",
                  speedup, s4.runner->shard_count(), s4.runner->workers(),
                  static_cast<unsigned long long>(s4.runner->windows()));
      const double ideal = s4.runner->ideal_speedup();
      std::printf("scale.shard4_ideal_speedup %.4f  "
                  "(events / sum over windows of the busiest shard's; "
                  "core-count independent)\n",
                  ideal);
      if (bench::Artifact* a2 = bench::Artifact::current()) {
        a2->add_value("scale.k8_shard4_speedup_ratio", speedup);
        a2->add_value("scale.shard4_ideal_speedup", ideal);
      }

      // Per-shard event counts and load balance. The pod partition should
      // keep every shard near the mean; the committed balance floor
      // (mean/max, 1.0 = perfectly even) catches a partition regression
      // that would serialize the conservative windows behind one hot shard.
      std::uint64_t sum = 0, max_e = 0;
      for (int s = 0; s < s4.dom.shard_count(); ++s) {
        const std::uint64_t e = s4.dom.sim(s).events_processed();
        sum += e;
        max_e = std::max(max_e, e);
      }
      const double mean_e = static_cast<double>(sum) /
                            static_cast<double>(s4.dom.shard_count());
      for (int s = 0; s < s4.dom.shard_count(); ++s) {
        const std::uint64_t e = s4.dom.sim(s).events_processed();
        std::printf("  shard %d: %10llu events  (%.3f of mean)\n", s,
                    static_cast<unsigned long long>(e),
                    static_cast<double>(e) / mean_e);
      }
      const double balance =
          max_e > 0 ? mean_e / static_cast<double>(max_e) : 1.0;
      std::printf("scale.shard4_balance_ratio %.4f  "
                  "(mean/max per-shard events; imbalance %.3fx)\n",
                  balance, max_e > 0
                               ? static_cast<double>(max_e) / mean_e
                               : 1.0);
      if (bench::Artifact* a2 = bench::Artifact::current()) {
        a2->add_value("scale.shard4_balance_ratio", balance);
      }
    }
  }

  // k=16 (1024 hosts, 320 switches) rides only the sharded engine — the
  // single-run scale the sharding tentpole exists for. Rows appear only
  // when CLOVE_SHARDS > 1, so the serial CI leg reports them as [skip]
  // rather than pricing a serial k=16 run it never needed.
  if (harness::default_shards() > 1) {
    prof::InstallGuard unprofiled(nullptr);
    ShardedFabric s16(16, harness::default_shards());
    const int k16_rounds = rounds / 4 > 0 ? rounds / 4 : 1;
    const std::uint64_t e0 = s16.events_processed();
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < k16_rounds; ++r) s16.run_round();
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    const std::uint64_t ev = s16.events_processed() - e0;
    const double eps = static_cast<double>(ev) / wall;
    const double rss16 = prof::peak_rss_mb();
    std::printf(
        "%-9s %4d hosts   %7.3f s wall   %8.2f Mevents/s   "
        "queue hwm %6zu   peak rss %7.1f MB   (%d shards, %u workers)\n",
        "scale_k16", s16.hosts, wall, eps / 1e6, s16.queue_high_water(),
        rss16, s16.runner->shard_count(), s16.runner->workers());
    std::printf("scale_k16.shard4_ideal_speedup %.4f  (%llu windows)\n",
                s16.runner->ideal_speedup(),
                static_cast<unsigned long long>(s16.runner->windows()));
    if (bench::Artifact* a = bench::Artifact::current()) {
      a->add_value("scale_k16.hosts", static_cast<double>(s16.hosts));
      a->add_value("scale_k16.events_per_sec", eps);
      a->add_value("scale_k16.rss_mb", rss16);
      a->add_value("scale_k16.queue_hwm",
                   static_cast<double>(s16.queue_high_water()));
      a->add_value("scale_k16.shard4_ideal_speedup",
                   s16.runner->ideal_speedup());
      a->note_engine(ev, s16.queue_high_water());
    }
  }

  // Hybrid flow/packet A/B (DESIGN.md §12), gated on CLOVE_HYBRID=on like
  // the k=16 rows are on CLOVE_SHARDS: the same k=8 web-search/ECMP TCP
  // workload runs packet-exact and then with elephant middles promoted to
  // the fluid engine. Same process, same seed, jobs must match exactly;
  // the speedup and mice-FCT-fidelity rows are the tentpole's contract.
  if (hybrid::HybridConfig::from_env().enabled) {
    prof::InstallGuard unprofiled(nullptr);
    const hybrid::HybridConfig hc = hybrid::HybridConfig::from_env();
    const auto ws = workload::FlowSizeDistribution::web_search();
    const double promotable =
        ws.bytes_fraction_at_least(hc.ramp_bytes + hc.min_remaining);
    std::printf(
        "\n== hybrid flow/packet A/B (k=8 fat-tree, web-search, ECMP) ==\n"
        "promotable byte share (flows >= %llu B): %.1f%%\n",
        static_cast<unsigned long long>(hc.ramp_bytes + hc.min_remaining),
        100.0 * promotable);

    // Fold both arms into the artifact's engine gauges: the packet-exact
    // arm dominates process wall-clock by design, so leaving its events out
    // would crater the whole-artifact engine.events_per_sec composite that
    // bench_check floors.
    const HybridRun off = run_hybrid_arm(hc, /*hybrid_on=*/false, scale);
    artifact.note_engine(off.r.events, off.r.queue_hwm);
    const HybridRun on = run_hybrid_arm(hc, /*hybrid_on=*/true, scale);
    artifact.note_engine(on.r.events, on.r.queue_hwm);
    const std::uint64_t promotions = on.r.hybrid.promotions;
    const std::uint64_t fluid_bytes = on.r.hybrid.fluid_bytes;

    const double speedup = off.wall_s / on.wall_s;
    const double ev_reduction = static_cast<double>(off.r.events) /
                                static_cast<double>(std::max<std::uint64_t>(
                                    1, on.r.events));
    const double mice_match =
        match_ratio(off.r.mice_avg_fct_s, on.r.mice_avg_fct_s);
    const double jobs_match =
        match_ratio(static_cast<double>(off.r.jobs),
                    static_cast<double>(on.r.jobs));
    std::printf(
        "  off: %7.3f s wall  %10llu events  %llu jobs  mice avg %.4fs p99 "
        "%.4fs\n"
        "  on:  %7.3f s wall  %10llu events  %llu jobs  mice avg %.4fs p99 "
        "%.4fs\n"
        "  %llu promotions, %.1f MB advanced fluidly\n"
        "hybrid.k8_speedup_ratio         %.3f  (wall-clock, same workload)\n"
        "hybrid.k8_event_reduction_ratio %.3f  (events skipped by the fluid "
        "model)\n"
        "hybrid.mice_fct_match_ratio     %.4f  (1.0 = identical mice avg "
        "FCT)\n"
        "hybrid.jobs_match_ratio         %.4f  (must be 1.0)\n",
        off.wall_s, static_cast<unsigned long long>(off.r.events),
        static_cast<unsigned long long>(off.r.jobs), off.r.mice_avg_fct_s,
        off.r.mice_p99_fct_s, on.wall_s,
        static_cast<unsigned long long>(on.r.events),
        static_cast<unsigned long long>(on.r.jobs), on.r.mice_avg_fct_s,
        on.r.mice_p99_fct_s,
        static_cast<unsigned long long>(promotions),
        static_cast<double>(fluid_bytes) / 1e6, speedup, ev_reduction,
        mice_match, jobs_match);
    if (bench::Artifact* a = bench::Artifact::current()) {
      a->add_value("hybrid.k8_speedup_ratio", speedup);
      a->add_value("hybrid.k8_event_reduction_ratio", ev_reduction);
      a->add_value("hybrid.mice_fct_match_ratio", mice_match);
      a->add_value("hybrid.jobs_match_ratio", jobs_match);
      a->add_value("hybrid.promotions", static_cast<double>(promotions));
    }
  }

  // Attribution rounds: profiled (the Artifact's session profiler is
  // installed on this thread), then the top time sinks — excluded from the
  // measured floors above by construction.
  if (prof::Profiler* p = artifact.profiler()) {
    const int attrib_rounds = rounds / 4 > 0 ? rounds / 4 : 1;
    for (int r = 0; r < attrib_rounds; ++r) {
      k4->driver.run_round(k4->sim);
      k8->driver.run_round(k8->sim);
    }
    p->note_simulator(k4->sim.events_processed(), k4->sim.queue_high_water(),
                      k4->sim.queue_slab_capacity());
    p->note_simulator(k8->sim.events_processed(), k8->sim.queue_high_water(),
                      k8->sim.queue_slab_capacity());
    auto& pool4 = net::PacketPool::of(k4->sim);
    auto& pool8 = net::PacketPool::of(k8->sim);
    p->note_pool(pool4.allocated(), pool4.reused());
    p->note_pool(pool8.allocated(), pool8.reused());

    // Sharded attribution: this runner is constructed while the session
    // profiler is installed, so each shard profiles into its own Profiler
    // and the destructor deposits the per-shard copies — including the
    // shard_sync barrier-wait share prof_summarize.py reports — into the
    // artifact's self-profile.
    {
      ShardedFabric sf(8, /*shards=*/4);
      for (int r = 0; r < attrib_rounds; ++r) sf.run_round();
      std::printf(
          "\nsharded attribution: %d shards, %u workers, %llu windows\n",
          sf.runner->shard_count(), sf.runner->workers(),
          static_cast<unsigned long long>(sf.runner->windows()));
    }

    std::printf("\ntop time sinks (profiled attribution rounds):\n");
    const auto sinks = p->top_sinks();
    std::uint64_t total_self = 0;
    for (prof::ScopeId id : sinks) total_self += p->stat(id).self_ns;
    int shown = 0;
    for (prof::ScopeId id : sinks) {
      if (shown++ == 5) break;
      const prof::ScopeStat& s = p->stat(id);
      std::printf("  %-16s %10.3f ms self   %8llu calls   %5.1f%%\n",
                  prof::scope_name(id), static_cast<double>(s.self_ns) / 1e6,
                  static_cast<unsigned long long>(s.count),
                  total_self > 0
                      ? 100.0 * static_cast<double>(s.self_ns) /
                            static_cast<double>(total_self)
                      : 0.0);
    }
  }
  return 0;
}
