// End-to-end benchmark of the simulator: one workload per process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--reference]
//
// A benchmark seed n stands for up to `simulations` independent
// simulations, with seeds 16n, 16n+1, ...
// Untraced (--trace 0): simulations run in sub-seed order, each once (set-up
// + traffic) in its own child process, until the time budget is used (at
// least kCheckedSims of them); then set-up alone repeats kSetups times in
// this process. The end-to-end metrics are medians over these, except peak
// RSS (see run_untraced).
// Traced (--trace 1): untraced and profiled runs of the first simulation
// alternate; the per-layer metrics come from the profiled ones, the
// overhead and attribution figures from comparing the two.
// --reference: prints what perfbench/references.json records for a seed:
// the workload's digest and the packet-exact FCTs of its inputs, which
// the traced run's fidelity metrics are measured against.
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "prof/prof.hpp"
#include "scenario.hpp"
#include "telemetry/hub.hpp"
#include "workload/flow_size.hpp"

extern char** environ;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Mean of the middle half of the samples: steadier than the median when
/// the samples cluster in two modes, still blind to the extreme quarter on
/// either side.
double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = v.size() - lo;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One benchmark span: a phase of one run, in host time since process start.
struct Span {
  std::string name;
  double start_s;
  double dur_s;
};

/// Host time of each phase of one run.
struct PhaseTimes {
  double build_s{0.0};
  double discovery_s{0.0};  ///< start_discovery + run to traffic start
  double workload_start_s{0.0};
  double traffic_s{0.0};
  [[nodiscard]] double setup_s() const {
    return build_s + discovery_s + workload_start_s;
  }
};

struct FullRun {
  PhaseTimes t;
  Outcome out;
  DiscoveryReport disc;
  double rss_after_discovery_mb{0.0};
  double peak_rss_mb{0.0};  ///< of the process that ran only this simulation
};

const Clock::time_point kProcessStart = Clock::now();

/// Times `fn` as one named span.
template <typename Fn>
double timed(const char* name, std::vector<Span>* spans, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  const double dur = since(t0);
  if (spans != nullptr) {
    spans->push_back(
        {name, std::chrono::duration<double>(t0 - kProcessStart).count(), dur});
  }
  return dur;
}

/// Set-up phases in the order run_fct_experiment performs them: build,
/// start discovery, install the workload, run to traffic start. Returns the
/// built scenario with discovery complete.
std::unique_ptr<Scenario> set_up(const WorkloadSpec& spec, std::uint64_t seed,
                                 PhaseTimes& t, std::vector<Span>* spans) {
  std::unique_ptr<Scenario> sc;
  t.build_s = timed("build", spans,
                    [&] { sc = std::make_unique<Scenario>(spec, seed); });
  t.discovery_s = timed("start_discovery", spans, [&] { sc->start_discovery(); });
  t.workload_start_s =
      timed("workload_start", spans, [&] { sc->start_workload(); });
  t.discovery_s +=
      timed("discovery", spans, [&] { sc->run_to_traffic_start(); });
  return sc;
}

/// One full run. `traffic_prof`, when set, is installed for the traffic
/// phase; null runs untraced.
FullRun full_run(const WorkloadSpec& spec, std::uint64_t seed,
                 prof::Profiler* traffic_prof = nullptr,
                 std::vector<Span>* spans = nullptr) {
  FullRun r;
  std::unique_ptr<Scenario> sc = set_up(spec, seed, r.t, spans);
  r.rss_after_discovery_mb = prof::peak_rss_mb();
  r.disc = sc->discovery_report();
  {
    prof::InstallGuard g(traffic_prof);
    r.t.traffic_s = timed("traffic", spans, [&] { sc->run_traffic(); });
  }
  timed("collect", spans, [&] { r.out = sc->collect(); });
  return r;
}

/// Runs `fn` in a forked child and returns its result, so each simulation
/// starts from the same small process and its peak RSS is its own (RSS is
/// monotonic over a process). Empty when the child did not report.
template <typename T, typename Fn>
std::optional<T> in_child(Fn&& fn) {
  static_assert(std::is_trivially_copyable_v<T>);
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    // Die with the parent, so a killed benchmark leaves nothing running.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() == 1) _exit(1);
    close(fds[0]);
    const T result = fn();
    const char* p = reinterpret_cast<const char*>(&result);
    std::size_t left = sizeof(T);
    while (left > 0) {
      const ssize_t n = write(fds[1], p, left);
      if (n <= 0) _exit(1);
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  T result{};
  char* p = reinterpret_cast<char*>(&result);
  std::size_t got = 0;
  while (got < sizeof(T)) {
    const ssize_t n = read(fds[0], p + got, sizeof(T) - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
  }
  if (got != sizeof(T) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  return result;
}

double setup_only(const WorkloadSpec& spec, std::uint64_t seed) {
  PhaseTimes t;
  std::unique_ptr<Scenario> sc = set_up(spec, seed, t, nullptr);
  return t.setup_s();
}

// ---------------------------------------------------------------------------
// Environment pinning
// ---------------------------------------------------------------------------

/// Every knob the simulator reads from the environment changes what is
/// measured (CLOVE_HYBRID, CLOVE_FAULT_PLAN) or adds observers
/// (CLOVE_PROF, CLOVE_TELEMETRY, CLOVE_FLIGHT_RECORDER, ...). The benchmark
/// sets each in code, so any CLOVE_* variable in the environment is refused.
bool environment_clean() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CLOVE_", 6) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; the benchmark "
                   "pins every simulator knob itself\n",
                   *e);
      clean = false;
    }
  }
  return clean;
}

void print_settings(const WorkloadSpec& spec, std::uint64_t seed, bool traced) {
  std::printf(
      "settings: workload=%s seed=%llu fabric=%s edge=%s hybrid=%s "
      "jobs/conn=%d conns/client=%d load=%.2f traffic_start=%.3fs "
      "fault_plan=none telemetry=off flight_recorder=off prof=%s\n",
      spec.name, static_cast<unsigned long long>(seed),
      spec.fat_tree ? "fat-tree k=8" : "leaf-spine 2x16, S2-L2 failed",
      spec.fat_tree ? "ECMP" : "Clove-ECN", spec.hybrid ? "on" : "off",
      spec.jobs_per_conn, spec.conns_per_client, spec.load,
      sim::to_seconds(kTrafficStart),
      traced ? "summary (traffic phase of traced runs)" : "off");
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(),
                    entries_[i].value, entries_[i].unit);
      s += buf;
    }
    return s + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.json().c_str());
  std::fflush(stdout);
}

/// Checks shared by all modes. Jobs unfinished at the horizon fail; so do
/// all jobs of a traced run whose digest differs from the untraced run of
/// the same simulation.
struct Verdict {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};

  void check(const WorkloadSpec& spec, const FullRun& r,
             const Digest* first = nullptr) {
    attempted += r.out.jobs_total;
    std::uint64_t bad = r.out.jobs_total - r.out.digest.jobs;
    if (first != nullptr && !(r.out.digest == *first)) {
      std::printf("digest mismatch: %s vs first run %s\n",
                  r.out.digest.to_string().c_str(), first->to_string().c_str());
      bad = r.out.jobs_total;
    }
    // Unpaced probe bursts overflow host queues, so some pairs may start
    // traffic on hashed ports (reported as overlay.pairs_without_paths);
    // discovery that found nothing at all is broken.
    if (!spec.fat_tree && r.disc.paths == 0) correct = false;
    if (r.out.digest.jobs == 0 || r.out.sim_traffic_s <= 0.0) correct = false;
    failed += bad;
    if (bad != 0) correct = false;
  }
};

/// Simulations every untraced run completes, whatever the time budget: a
/// seed whose first simulations hit the slow SACK path (see README) still
/// gets a median over enough fast ones. The seed's digest covers these.
constexpr int kCheckedSims = 8;

/// One digest for a benchmark seed: FNV-1a over the digests of its first
/// kCheckedSims simulations.
std::uint64_t combined_digest(const std::vector<FullRun>& runs) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < runs.size() && i < kCheckedSims; ++i) {
    h ^= runs[i].out.digest.hash();
    h *= 1099511628211ull;
  }
  return h;
}

void print_run(const char* tag, const FullRun& r) {
  std::printf(
      "%s: build %.4fs discovery %.4fs start %.4fs traffic %.4fs "
      "(sim %.4fs, %llu events, %llu B offered) jobs %llu/%llu, %llu of %llu "
      "pairs without a path at traffic start\n",
      tag, r.t.build_s, r.t.discovery_s, r.t.workload_start_s, r.t.traffic_s,
      r.out.sim_traffic_s, static_cast<unsigned long long>(r.out.traffic_events),
      static_cast<unsigned long long>(r.out.bytes_offered),
      static_cast<unsigned long long>(r.out.digest.jobs),
      static_cast<unsigned long long>(r.out.jobs_total),
      static_cast<unsigned long long>(r.disc.pairs_missing),
      static_cast<unsigned long long>(r.disc.pairs));
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

constexpr int kMaxFullRuns = 40;
constexpr int kSetups = 8;

/// The workload's simulations for one benchmark seed, in sub-seed order,
/// each in its own child process: the first kCheckedSims always, then more
/// (up to spec.simulations) while `seconds` since `t0` are not used up.
std::vector<FullRun> seed_runs(const WorkloadSpec& spec, std::uint64_t seed,
                               Verdict& v, Clock::time_point t0, double seconds) {
  std::vector<FullRun> runs;
  for (int i = 0; i < spec.simulations; ++i) {
    if (i >= kCheckedSims && since(t0) >= seconds) break;
    const std::optional<FullRun> r = in_child<FullRun>([&] {
      FullRun run = full_run(spec, sub_seed(seed, i));
      run.peak_rss_mb = prof::peak_rss_mb();
      return run;
    });
    if (!r.has_value()) {
      // A simulation that crashed counts as one failed attempt.
      std::printf("simulation %d did not complete\n", i);
      ++v.attempted;
      ++v.failed;
      v.correct = false;
      continue;
    }
    runs.push_back(*r);
    print_run("run", runs.back());
    v.check(spec, runs.back());
  }
  return runs;
}

int run_untraced(const WorkloadSpec& spec, std::uint64_t seed, double seconds) {
  prof::InstallGuard unprofiled(nullptr);
  const Clock::time_point t0 = Clock::now();
  Verdict v;
  const std::vector<FullRun> runs = seed_runs(spec, seed, v, t0, seconds);
  std::printf("digest %016llx\n",
              static_cast<unsigned long long>(combined_digest(runs)));

  // Traffic host time per GB offered: the simulations' offered bytes vary
  // with the heavy-tailed flow sizes (their event counts follow), so host
  // time per offered byte is the cost of a fixed amount of work.
  std::vector<double> traffic_s, s_per_gb, rss_mb;
  for (const FullRun& r : runs) {
    traffic_s.push_back(r.t.traffic_s);
    s_per_gb.push_back(r.t.traffic_s / (static_cast<double>(r.out.bytes_offered) / 1e9));
    rss_mb.push_back(r.peak_rss_mb);
  }
  // Set-up alone, repeated kSetups times in this process. Each simulation's
  // set-up ran in a fresh child and paid first-touch page faults whose cost
  // drifts with the host's memory pressure; a warm process times the set-up
  // work itself.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    setup_s.push_back(setup_only(spec, sub_seed(seed, i % spec.simulations)));
  }
  std::printf("samples: %zu simulations, %zu set-ups; median traffic %.4fs\n",
              runs.size(), setup_s.size(), median(traffic_s));
  if (runs.empty()) return 1;

  Metrics m;
  m.add("setup_s", median(setup_s), "s");
  m.add("traffic_s_per_gb", median(s_per_gb), "s/GB");
  // Peak RSS is exact per simulation but splits into a few modes by input
  // (queue and slab high-water marks), so the median would jump between
  // them from seed to seed.
  m.add("peak_rss_mb", interquartile_mean(rss_mb), "MB");
  print_result(v.correct, v.attempted, v.failed, m);
  return 0;
}

/// Self time of a scope per traced run, less the profiler's own cost.
struct ScopeCost {
  double count{0.0};
  double self_ns{0.0};
};

ScopeCost corrected(const prof::Profiler& p, prof::ScopeId id, int runs) {
  const prof::ScopeStat& s = p.stat(id);
  const double overhead = static_cast<double>(s.count) *
                          static_cast<double>(prof::scope_overhead_ns_estimate());
  const double self = std::max(0.0, static_cast<double>(s.self_ns) - overhead);
  return {static_cast<double>(s.count) / runs, self / runs};
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const prof::Profiler& traffic, int traced_runs) {
  std::string s = "{\"traceEvents\": [\n";
  s += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"args\": "
       "{\"name\": \"perfbench\"}},\n";
  s += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
       "\"args\": {\"name\": \"phases\"}},\n";
  s += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 2, "
       "\"args\": {\"name\": \"traffic scope totals per traced run\"}}";
  char buf[512];
  for (const Span& sp : spans) {
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f}",
                  sp.name.c_str(), sp.start_s * 1e6, sp.dur_s * 1e6);
    s += buf;
  }
  // Scope totals laid end to end from the first traffic span: one bar per
  // scope whose length is its corrected self time per traced run.
  double ts = 0.0;
  for (const Span& sp : spans) {
    if (sp.name == "traffic") {
      ts = sp.start_s * 1e6;
      break;
    }
  }
  for (int i = 0; i < prof::kScopeCount; ++i) {
    const auto id = static_cast<prof::ScopeId>(i);
    const prof::ScopeStat& st = traffic.stat(id);
    if (st.count == 0) continue;
    const ScopeCost c = corrected(traffic, id, traced_runs);
    std::snprintf(
        buf, sizeof buf,
        ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 2, "
        "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"count\": %.17g, "
        "\"self_ns\": %.17g, \"corrected_self_ns\": %.17g, "
        "\"scope_overhead_ns\": %llu}}",
        prof::scope_name(id), ts, c.self_ns / 1e3, c.count,
        static_cast<double>(st.self_ns) / traced_runs, c.self_ns,
        static_cast<unsigned long long>(prof::scope_overhead_ns_estimate()));
    s += buf;
    ts += c.self_ns / 1e3;
  }
  s += "\n]}\n";
  std::ofstream f(path);
  f << s;
  if (!f) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  else std::printf("chrome trace: %s\n", path.c_str());
}

/// Packet-exact FCTs of one seed's inputs, recorded in references.json.
struct Reference {
  std::uint64_t seed;
  double mice_mean_fct_s;
  double p99_fct_s;
};

int run_traced(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
               const std::string& trace_out, const std::optional<Reference>& ref) {
  const Clock::time_point t0 = Clock::now();
  prof::Profiler traffic_prof(prof::Mode::kSummary);
  std::vector<FullRun> plain, traced;
  std::vector<Span> spans;
  Verdict v;
  // The seed's first simulation, untraced and traced in turn so both see
  // the same machine state.
  const std::uint64_t sim_seed = sub_seed(seed, 0);
  while (plain.empty() ||
         (since(t0) < seconds && static_cast<int>(plain.size()) < kMaxFullRuns)) {
    plain.push_back(full_run(spec, sim_seed));
    print_run("untraced", plain.back());
    v.check(spec, plain.back(), &plain.front().out.digest);
    traced.push_back(
        full_run(spec, sim_seed, &traffic_prof, traced.empty() ? &spans : nullptr));
    print_run("traced", traced.back());
    v.check(spec, traced.back(), &plain.front().out.digest);
  }
  const int n = static_cast<int>(traced.size());
  auto med = [](const std::vector<FullRun>& runs, auto field) {
    std::vector<double> xs;
    for (const FullRun& r : runs) xs.push_back(field(r));
    return median(xs);
  };
  const double traffic_plain =
      med(plain, [](const FullRun& r) { return r.t.traffic_s; });
  const double traffic_traced =
      med(traced, [](const FullRun& r) { return r.t.traffic_s; });
  const FullRun& first = plain.front();
  const Outcome& o = first.out;

  // Fidelity against the packet-exact FCTs recorded for the reference
  // seed (references.json): the hybrid approximation's error on
  // fattree8_hybrid, and exactly 0 on the packet-exact workloads unless a
  // change altered simulated results.
  double mice_err = 0.0, p99_err = 0.0;
  if (ref.has_value()) {
    const Outcome at_ref =
        ref->seed == seed
            ? o
            : full_run(spec, sub_seed(ref->seed, 0)).out;
    mice_err = std::abs(at_ref.mice_mean_fct_s - ref->mice_mean_fct_s) /
               ref->mice_mean_fct_s;
    p99_err =
        std::abs(at_ref.digest.p99_fct_s - ref->p99_fct_s) / ref->p99_fct_s;
    std::printf("fidelity at seed %llu: mice mean %.6g s vs %.6g s, p99 %.6g "
                "s vs %.6g s\n",
                static_cast<unsigned long long>(ref->seed),
                at_ref.mice_mean_fct_s, ref->mice_mean_fct_s,
                at_ref.digest.p99_fct_s, ref->p99_fct_s);
  }

  const ScopeCost dispatch = corrected(traffic_prof, prof::kDispatch, n);
  const ScopeCost link_tx = corrected(traffic_prof, prof::kLinkTx, n);
  const ScopeCost link_rx = corrected(traffic_prof, prof::kLinkDeliver, n);
  const ScopeCost sw = corrected(traffic_prof, prof::kSwitchForward, n);
  const ScopeCost hyp = corrected(traffic_prof, prof::kHypervisor, n);
  const ScopeCost pol = corrected(traffic_prof, prof::kPolicy, n);
  const ScopeCost tcp = corrected(traffic_prof, prof::kTransport, n);
  const ScopeCost hyb = corrected(traffic_prof, prof::kHybrid, n);
  double attributed_ns = 0.0;
  for (int i = 0; i < prof::kScopeCount; ++i) {
    attributed_ns +=
        corrected(traffic_prof, static_cast<prof::ScopeId>(i), n).self_ns;
  }

  const double promotable =
      workload::FlowSizeDistribution::web_search().bytes_fraction_at_least(
          hybrid::HybridConfig{}.ramp_bytes + hybrid::HybridConfig{}.min_remaining);
  std::printf(
      "properties: discovery share of wall %.4f, promotable byte share %.4f, "
      "policy calls per run %.0f\n",
      ratio(first.t.discovery_s, first.t.setup_s() + first.t.traffic_s),
      promotable, pol.count);

  const auto u = [](std::uint64_t x) { return static_cast<double>(x); };
  Metrics m;
  m.add("harness.build_s", med(plain, [](const FullRun& r) { return r.t.build_s; }), "s");
  m.add("sim.traffic_s", traffic_plain, "s");
  m.add("sim.events", u(o.traffic_events), "count");
  m.add("sim.events_per_s", ratio(u(o.traffic_events), traffic_plain), "1/s");
  m.add("sim.sim_s_per_wall_s", ratio(o.sim_traffic_s, traffic_plain),
        "sim-s/s");
  m.add("sim.queue_hwm", u(o.queue_hwm), "count");
  m.add("sim.dispatch_ns_per_event", ratio(dispatch.self_ns, dispatch.count), "ns");
  m.add("net.tx_packets", u(o.tx_packets), "count");
  m.add("net.drops", u(o.digest.drops), "count");
  m.add("net.ecn_marks", u(o.digest.ecn_marks), "count");
  m.add("net.pool_allocated", u(o.pool_allocated), "count");
  m.add("net.pool_reuse_ratio",
        ratio(u(o.pool_reused), u(o.pool_reused + o.pool_allocated)), "ratio");
  m.add("net.link_ns_per_pkt",
        ratio(link_tx.self_ns + link_rx.self_ns, u(o.tx_packets)), "ns");
  m.add("net.switch_ns_per_fwd", ratio(sw.self_ns, sw.count), "ns");
  m.add("overlay.discovery_s",
        med(plain, [](const FullRun& r) { return r.t.discovery_s; }), "s");
  m.add("overlay.discovery_events", u(o.discovery_events), "count");
  m.add("overlay.rss_after_discovery_mb", first.rss_after_discovery_mb, "MB");
  m.add("overlay.pairs_without_paths", u(first.disc.pairs_missing), "count");
  m.add("overlay.probes_sent", u(o.probes_sent), "count");
  m.add("overlay.probes_per_path", ratio(u(o.probes_sent), u(o.paths_discovered)),
        "ratio");
  m.add("overlay.encapped", u(o.encapped), "count");
  m.add("overlay.feedback_received", u(o.feedback_received), "count");
  m.add("overlay.ce_intercepted", u(o.ce_intercepted), "count");
  m.add("overlay.hypervisor_ns_per_pkt", ratio(hyp.self_ns, hyp.count), "ns");
  m.add("lb.picks", pol.count, "count");
  m.add("lb.policy_ns_per_pick", ratio(pol.self_ns, pol.count), "ns");
  m.add("transport.bytes_sent", u(o.transport.bytes_sent), "B");
  m.add("transport.timeouts", u(o.transport.timeouts), "count");
  m.add("transport.fast_retransmits", u(o.transport.fast_retransmits), "count");
  m.add("transport.goodput_ratio",
        ratio(u(o.transport.bytes_acked), u(o.transport.bytes_sent)), "ratio");
  m.add("transport.ns_per_segment", ratio(tcp.self_ns, tcp.count), "ns");
  m.add("hybrid.promotions", u(o.hybrid.promotions), "count");
  m.add("hybrid.solves", u(o.hybrid.solves), "count");
  m.add("hybrid.demotions_tail", u(o.hybrid.demotions_tail), "count");
  m.add("hybrid.demotions_loss", u(o.hybrid.demotions_loss), "count");
  m.add("hybrid.demotions_link", u(o.hybrid.demotions_link), "count");
  m.add("hybrid.demotions_degrade", u(o.hybrid.demotions_degrade), "count");
  m.add("hybrid.fluid_byte_share",
        ratio(u(o.hybrid.fluid_bytes), u(o.bytes_offered)), "ratio");
  m.add("hybrid.trace_retry_ratio",
        ratio(u(o.hybrid.trace_retries), u(o.hybrid.trace_requests)), "ratio");
  m.add("hybrid.ns_per_solve", ratio(hyb.self_ns, u(o.hybrid.solves)), "ns");
  m.add("hybrid.mice_fct_err", mice_err, "ratio");
  m.add("hybrid.p99_fct_err", p99_err, "ratio");
  m.add("workload.jobs", u(o.jobs_total), "count");
  m.add("workload.bytes_offered", u(o.bytes_offered), "B");
  m.add("workload.start_s",
        med(plain, [](const FullRun& r) { return r.t.workload_start_s; }), "s");
  m.add("trace.overhead_ratio", ratio(traffic_traced, traffic_plain), "ratio");
  m.add("trace.attribution_gap", 1.0 - attributed_ns / (traffic_plain * 1e9),
        "ratio");
  if (!trace_out.empty()) write_chrome_trace(trace_out, spans, traffic_prof, n);
  print_result(v.correct, v.attempted, v.failed, m);
  return 0;
}

/// Prints what references.json records for one seed: the digest an
/// untraced run must reproduce, and the packet-exact FCTs of the seed's
/// first simulation, which a traced run's fidelity is measured against.
int run_reference(const WorkloadSpec& spec, std::uint64_t seed) {
  prof::InstallGuard unprofiled(nullptr);
  Verdict v;
  const std::vector<FullRun> runs = seed_runs(spec, seed, v, Clock::now(), 0.0);
  if (runs.empty()) return 1;
  FullRun exact = runs.front();
  if (spec.hybrid) {
    exact = full_run(packet_exact(spec), sub_seed(seed, 0));
    print_run("packet-exact", exact);
    v.check(packet_exact(spec), exact);
  }
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"digest\": "
              "\"%016llx\", \"packet_exact\": {\"mice_mean_fct_s\": %.17g, "
              "\"p99_fct_s\": %.17g}}\n",
              spec.name, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(combined_digest(runs)),
              exact.out.mice_mean_fct_s, exact.out.digest.p99_fct_s);
  return v.correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n"
               "                 [--ref-seed <n> --ref-mice <s> --ref-p99 <s>]\n"
               "       perfbench --workload <name> --seed <n> --reference\n"
               "workloads:");
  for (const WorkloadSpec& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  bool reference = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--reference") {
      reference = true;
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      args[a.substr(2)] = argv[++i];
    } else {
      return usage();
    }
  }
  const WorkloadSpec* spec =
      args.count("workload") ? find_workload(args["workload"]) : nullptr;
  if (spec == nullptr || !args.count("seed")) return usage();
  char* end = nullptr;
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (end == args["seed"].c_str() || *end != '\0') return usage();
  if (!environment_clean()) return 2;
  // Pinned off for every run, whatever the process-wide scope defaulted to.
  clove::telemetry::hub().set_enabled(false);
  if (reference) return run_reference(*spec, seed);

  const double seconds = args.count("seconds") ? std::atof(args["seconds"].c_str()) : 0.0;
  const std::string trace = args.count("trace") ? args["trace"] : "0";
  if (seconds <= 0.0 || (trace != "0" && trace != "1")) return usage();
  print_settings(*spec, seed, trace == "1");
  if (trace == "0") return run_untraced(*spec, seed, seconds);
  std::optional<Reference> ref;
  if (args.count("ref-seed")) {
    ref = Reference{std::strtoull(args["ref-seed"].c_str(), nullptr, 10),
                    std::atof(args["ref-mice"].c_str()),
                    std::atof(args["ref-p99"].c_str())};
    if (ref->mice_mean_fct_s <= 0.0 || ref->p99_fct_s <= 0.0) return usage();
  }
  return run_traced(*spec, seed, seconds, args["trace-out"], ref);
}
