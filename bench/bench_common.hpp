#pragma once

// Shared plumbing for the figure-reproduction bench binaries.
//
// Scale knobs (environment):
//   CLOVE_JOBS     jobs per connection   (default 40; paper §5 used 50000)
//   CLOVE_SEEDS    seeds averaged        (default 1;  paper used 3)
//   CLOVE_CONNS    connections/client    (default 2;  §6 used 3)
//   CLOVE_THREADS  sweep-point parallelism (default: hardware threads; 1 =
//                  serial). Sweep points are independent simulations, so
//                  run_sweep() fans them out across a harness::ParallelRunner;
//                  results and artifacts keep sweep order and are
//                  bit-identical for any thread count at equal seeds.
//
// Each binary prints the same rows/series as the corresponding figure in the
// paper; EXPERIMENTS.md records the paper-vs-measured comparison.
//
// Machine-readable artifacts: set CLOVE_JSON_OUT=<dir> and each bench writes
// <dir>/<bench>.json with every swept point (FCT stats + fabric counters +
// a telemetry metrics digest). Declaring a bench::Artifact near the top of
// main() is all a bench needs; run_point() / run_sweep() record into it
// automatically.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/parallel_runner.hpp"
#include "prof/prof.hpp"
#include "stats/stats.hpp"
#include "telemetry/artifact.hpp"
#include "telemetry/hub.hpp"
#include "workload/client_server.hpp"

namespace clove::bench {

struct SweepResult {
  double avg_fct_s{0.0};
  double mice_avg_fct_s{0.0};
  double elephant_avg_fct_s{0.0};
  double p99_fct_s{0.0};
  std::uint64_t jobs{0};              ///< summed over seeds
  std::uint64_t timeouts{0};          ///< summed over seeds
  std::uint64_t fast_retransmits{0};  ///< summed over seeds
  std::uint64_t ecn_marks{0};         ///< summed over seeds
  std::uint64_t drops{0};             ///< summed over seeds
  std::uint64_t events{0};            ///< simulator events, summed over seeds
  std::uint64_t queue_hwm{0};         ///< event-queue high water, max over seeds
  std::shared_ptr<stats::FctRecorder> fct;  ///< from the last seed
  /// Metrics snapshot from the last seed (only when telemetry is enabled).
  telemetry::MetricsSnapshot metrics;
};

/// Collects every point a bench sweeps and, when CLOVE_JSON_OUT is set,
/// writes `<dir>/<bench>.json` on destruction. Constructing one enables
/// telemetry when artifacts are requested, so snapshots carry data.
/// run_point() records into the current (most recent) instance.
class Artifact {
 public:
  Artifact(std::string name, std::string paper_ref,
           const harness::BenchScale& scale)
      : name_(std::move(name)),
        doc_(telemetry::Json::object()),
        points_(telemetry::Json::array()),
        values_(telemetry::Json::array()),
        start_(std::chrono::steady_clock::now()) {
    doc_.set("bench", telemetry::Json(name_));
    doc_.set("reproduces", telemetry::Json(paper_ref));
    telemetry::Json sc = telemetry::Json::object();
    sc.set("jobs_per_conn", telemetry::Json(scale.jobs_per_conn));
    sc.set("seeds", telemetry::Json(scale.seeds));
    sc.set("conns_per_client", telemetry::Json(scale.conns_per_client));
    doc_.set("scale", sc);
    // Artifacts without telemetry would carry all-zero counters; requesting
    // JSON output implies wanting the instrumented values.
    if (!telemetry::json_out_dir().empty()) {
      telemetry::current_scope().set_enabled(true);
    }
    current_ = this;
  }

  Artifact(const Artifact&) = delete;
  Artifact& operator=(const Artifact&) = delete;

  ~Artifact() {
    if (current_ == this) current_ = nullptr;
    const std::string dir = telemetry::json_out_dir();
    if (dir.empty()) return;
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    doc_.set("wall_time_s", telemetry::Json(wall_s));

    // Engine observability (DESIGN.md §10): every bench artifact carries the
    // run's event throughput, queue pressure, and process peak RSS — and,
    // when a profiler is installed (CLOVE_PROF), its self-profile section
    // plus flamegraph/Chrome-trace side files.
    const double rss_mb = prof::peak_rss_mb();
    telemetry::Json eng = telemetry::Json::object();
    eng.set("events", telemetry::Json(static_cast<double>(total_events_)));
    const double eps = wall_s > 0.0 && total_events_ > 0
                           ? static_cast<double>(total_events_) / wall_s
                           : 0.0;
    eng.set("events_per_sec", telemetry::Json(eps));
    eng.set("queue_hwm",
            telemetry::Json(static_cast<double>(queue_hwm_)));
    eng.set("peak_rss_mb", telemetry::Json(rss_mb));
    if (prof::Profiler* p = prof_session_.profiler()) {
      std::string err;
      telemetry::Json sp = telemetry::Json::parse(p->to_json(), &err);
      if (err.empty()) eng.set("self_profile", std::move(sp));
      const std::string prof_dir = prof::out_dir_from_env(dir);
      if (p->mode() == prof::Mode::kFull) {
        telemetry::write_text_artifact(prof_dir, "PROF_" + name_ + ".folded",
                                       p->folded());
        telemetry::write_text_artifact(prof_dir,
                                       "PROF_" + name_ + "_trace.json",
                                       p->chrome_trace());
      }
    }
    doc_.set("engine", eng);
    // Mirror the guard-relevant gauges into `values` so bench_check.py can
    // hold them to its floor (_per_sec) and ceiling (.rss_mb) rules.
    if (total_events_ > 0 && mirror_engine_rate_) {
      add_value("engine.events_per_sec", eps);
    }
    add_value("engine.rss_mb", rss_mb);

    doc_.set("points", points_);
    if (values_.size() > 0) doc_.set("values", values_);
    const std::string path = telemetry::write_json_artifact(dir, name_, doc_);
    if (!path.empty()) {
      std::printf("\nartifact: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "\nwarning: CLOVE_JSON_OUT=%s is not writable, %s.json not saved\n",
                   dir.c_str(), name_.c_str());
    }
  }

  [[nodiscard]] static Artifact* current() { return current_; }

  /// One swept (scheme, load) point. Called from run_point().
  void record_point(const harness::ExperimentConfig& cfg, double load,
                    const SweepResult& r) {
    telemetry::Json p = telemetry::Json::object();
    p.set("scheme", telemetry::Json(harness::scheme_name(cfg.scheme)));
    p.set("load", telemetry::Json(load));
    p.set("asymmetric", telemetry::Json(cfg.asymmetric));
    p.set("avg_fct_s", telemetry::Json(r.avg_fct_s));
    p.set("mice_avg_fct_s", telemetry::Json(r.mice_avg_fct_s));
    p.set("elephant_avg_fct_s", telemetry::Json(r.elephant_avg_fct_s));
    p.set("p99_fct_s", telemetry::Json(r.p99_fct_s));
    p.set("jobs", telemetry::Json(static_cast<double>(r.jobs)));
    p.set("timeouts", telemetry::Json(static_cast<double>(r.timeouts)));
    p.set("fast_retransmits",
          telemetry::Json(static_cast<double>(r.fast_retransmits)));
    p.set("ecn_marks", telemetry::Json(static_cast<double>(r.ecn_marks)));
    p.set("drops", telemetry::Json(static_cast<double>(r.drops)));
    p.set("events", telemetry::Json(static_cast<double>(r.events)));
    p.set("queue_hwm", telemetry::Json(static_cast<double>(r.queue_hwm)));
    note_engine(r.events, r.queue_hwm);
    if (!r.metrics.samples.empty()) {
      p.set("metrics", metrics_digest(r.metrics));
    }
    points_.push_back(p);
  }

  /// Free-form named value for benches whose output is not a load sweep
  /// (incast goodput, micro-bench ratios, parameter ablations).
  void add_value(const std::string& name, double value,
                 const telemetry::Labels& labels = {}) {
    telemetry::Json v = telemetry::Json::object();
    v.set("name", telemetry::Json(name));
    for (const auto& [k, val] : labels) v.set(k, telemetry::Json(val));
    v.set("value", telemetry::Json(value));
    values_.push_back(v);
  }

 private:
  /// Fabric-wide aggregates of the metrics snapshot, compact enough to
  /// embed per point.
  static telemetry::Json metrics_digest(const telemetry::MetricsSnapshot& m) {
    telemetry::Json d = telemetry::Json::object();
    auto put_sum = [&](const char* key, const char* metric) {
      d.set(key, telemetry::Json(m.sum_over(metric)));
    };
    put_sum("link.tx_packets", "link.tx_packets");
    put_sum("link.tx_bytes", "link.tx_bytes");
    put_sum("link.drops_overflow", "link.drops_overflow");
    put_sum("link.ecn_marks", "link.ecn_marks");
    put_sum("hyp.encapped", "hyp.encapped");
    put_sum("hyp.feedback_received", "hyp.feedback_received");
    put_sum("hyp.ce_intercepted", "hyp.ce_intercepted");
    put_sum("hyp.forged_ece", "hyp.forged_ece");
    put_sum("tcp.timeouts", "tcp.timeouts");
    put_sum("tcp.fast_retransmits", "tcp.fast_retransmits");
    put_sum("tcp.ecn_reductions", "tcp.ecn_reductions");
    if (const auto* rtt = m.find("tcp.rtt_us")) {
      telemetry::Json h = telemetry::Json::object();
      h.set("count", telemetry::Json(static_cast<double>(rtt->count)));
      h.set("p50", telemetry::Json(rtt->p50));
      h.set("p99", telemetry::Json(rtt->p99));
      d.set("tcp.rtt_us", h);
    }
    return d;
  }

  inline static Artifact* current_ = nullptr;

  std::string name_;
  telemetry::Json doc_;
  telemetry::Json points_;
  telemetry::Json values_;
  std::chrono::steady_clock::time_point start_;
  /// Installs a Profiler for the bench's lifetime when CLOVE_PROF is set —
  /// declaring the Artifact makes the binary profilable, nothing else to do.
  prof::SessionGuard prof_session_;
  std::uint64_t total_events_{0};
  std::uint64_t queue_hwm_{0};
  bool mirror_engine_rate_{true};

 public:
  /// Fold one run's engine gauges into the artifact totals. record_point()
  /// calls this automatically; benches that bypass it (micro-benches with
  /// hand-rolled loops) call it directly.
  void note_engine(std::uint64_t events, std::uint64_t queue_hwm) {
    total_events_ += events;
    if (queue_hwm > queue_hwm_) queue_hwm_ = queue_hwm;
  }
  /// Opt out of the blended `engine.events_per_sec` values row (the JSON
  /// `engine` section keeps it either way). For benches whose phases are
  /// gated on env knobs (bench_scale's CLOVE_SHARDS k=16 arm, CLOVE_HYBRID
  /// A/B arm) the blend mixes different work per CI matrix leg, so no one
  /// committed floor fits every leg — their per-phase *_per_sec rows carry
  /// the throughput guard instead.
  void set_mirror_engine_rate(bool on) { mirror_engine_rate_ = on; }
  /// The bench's session profiler, or null when CLOVE_PROF=off.
  [[nodiscard]] prof::Profiler* profiler() { return prof_session_.profiler(); }
};

/// Run one (scheme, load) point averaged over `seeds` seeds, without
/// recording it anywhere. Pure with respect to process state (each seed is a
/// self-contained simulation), so points may run concurrently.
inline SweepResult compute_point(harness::ExperimentConfig cfg, double load,
                                 const harness::BenchScale& scale) {
  workload::ClientServerConfig wl;
  wl.load = load;
  wl.jobs_per_conn = scale.jobs_per_conn;
  wl.conns_per_client = scale.conns_per_client;

  SweepResult out;
  for (int s = 0; s < scale.seeds; ++s) {
    cfg.seed = static_cast<std::uint64_t>(s) * 7919 + 1;
    auto r = harness::run_fct_experiment(cfg, wl);
    out.avg_fct_s += r.avg_fct_s / scale.seeds;
    out.mice_avg_fct_s += r.mice_avg_fct_s / scale.seeds;
    out.elephant_avg_fct_s += r.elephant_avg_fct_s / scale.seeds;
    out.p99_fct_s += r.p99_fct_s / scale.seeds;
    out.jobs += r.jobs;
    out.timeouts += r.timeouts;
    out.fast_retransmits += r.fast_retransmits;
    out.ecn_marks += r.ecn_marks;
    out.drops += r.drops;
    out.events += r.events;
    if (r.queue_hwm > out.queue_hwm) out.queue_hwm = r.queue_hwm;
    out.fct = r.fct;
    out.metrics = std::move(r.metrics);
  }
  return out;
}

/// Run one (scheme, load) point averaged over `seeds` seeds. Records the
/// point into the current bench Artifact (if one is declared).
inline SweepResult run_point(harness::ExperimentConfig cfg, double load,
                             const harness::BenchScale& scale) {
  SweepResult out = compute_point(cfg, load, scale);
  if (Artifact* a = Artifact::current()) a->record_point(cfg, load, out);
  return out;
}

/// One entry of a sweep handed to run_sweep().
struct SweepPoint {
  harness::ExperimentConfig cfg;
  double load{0.0};
};

/// Run every sweep point, in parallel across CLOVE_THREADS workers (sweep
/// points are independent simulations — own Simulator, packet pool, and
/// telemetry scope each). Results come back in `points` order, and Artifact
/// recording happens afterwards on the calling thread in that same order, so
/// output is deterministic and bit-identical to a serial run.
inline std::vector<SweepResult> run_sweep(const std::vector<SweepPoint>& points,
                                          const harness::BenchScale& scale) {
  harness::ParallelRunner runner;
  std::vector<std::function<SweepResult()>> fns;
  fns.reserve(points.size());
  for (const SweepPoint& p : points) {
    fns.push_back([p, &scale] { return compute_point(p.cfg, p.load, scale); });
  }
  std::vector<SweepResult> results = runner.map<SweepResult>(std::move(fns));
  if (Artifact* a = Artifact::current()) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      a->record_point(points[i].cfg, points[i].load, results[i]);
    }
  }
  return results;
}

/// Positive integer from environment variable `name`, else `def`.
inline int env_int(const char* name, int def) {
  if (const char* s = std::getenv(name)) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return def;
}

inline void print_header(const std::string& title, const std::string& paper_ref,
                         const harness::BenchScale& scale) {
  std::printf("== %s ==\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf(
      "scale: %d jobs/conn x %d conns/client x %d seed(s)   "
      "(CLOVE_JOBS / CLOVE_CONNS / CLOVE_SEEDS to change)\n\n",
      scale.jobs_per_conn, scale.conns_per_client, scale.seeds);
}

/// The ratio "X captures this fraction of the ECMP->CONGA gain" used by the
/// paper's §6 headline claims (80% for Clove-ECN, 95% for Clove-INT).
inline double capture_fraction(double ecmp, double x, double conga) {
  const double gain = ecmp - conga;
  if (gain <= 0.0) return 1.0;
  return (ecmp - x) / gain;
}

inline std::vector<double> default_loads(std::initializer_list<double> loads) {
  return std::vector<double>(loads);
}

}  // namespace clove::bench
