// Fault-recovery macro-bench (DESIGN.md §8, paper §5.2 dynamics): per
// scheme, run the web-search workload, hard-fail one S2-L2 fabric link
// mid-run through a fault::FaultPlan (30ms route-convergence blackhole),
// restore it later, and measure from per-job completion times:
//
//   * pre_fail_mice_fct_ms  mean mice FCT before the failure
//   * fct_inflation_x       mean FCT of mice ARRIVING inside the blackhole
//                           window [fail, fail+convergence) vs pre
//   * recovery_ms           when the mean FCT of mice arriving in a bucket
//                           is back within 20% of the pre-fault mean *and
//                           stays there* until the link returns (-1 = never)
//
// Jobs are bucketed by ARRIVAL time, not completion time: a mouse that
// stalls into a 200ms RTO must count against the moment it was issued.
// Completion-time bucketing has survivorship bias — during the outage only
// the lucky flows finish, so the outage looks *fast* while the stalled
// traffic silently piles into later buckets.
//
// The edge-recovery story: during the blackhole window every scheme loses
// packets into the dead link, but Clove's path-health monitor evicts the
// dead outer port within a few keepalive timeouts and the WRR weights
// renormalize onto the survivors — new flowlets stop dying long before the
// guest TCP's 200ms min-RTO fires. ECMP has no edge state to repair, so
// its stalled flows serve the full RTO penalty.
//
// Scale is pinned by CLOVE_FAULT_JOBS (default 300 jobs/conn), *not* by
// CLOVE_JOBS: the committed BENCH_fault.json baseline and the CI re-run
// must measure the same schedule for the recovery-time ceiling check
// (scripts/bench_check.py) to be meaningful.
//
// With CLOVE_FLIGHT_RECORDER on and CLOVE_JSON_OUT set, each scheme also
// exports FLIGHT_fault_<scheme>.json (+ journey/flow JSONL and link time
// series, via harness::export_flight) so scripts/trace_summarize.py can
// audit the run: drops on the failed link must be accounted, and no packet
// may vanish or reorder while the path set churns.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "telemetry/scope.hpp"

namespace {

using namespace clove;

const sim::Time kBucket = 50 * sim::kMillisecond;
const sim::Time kFailAt = 400 * sim::kMillisecond;
const sim::Time kRestoreAt = 1200 * sim::kMillisecond;
const sim::Time kConvergence = 250 * sim::kMillisecond;
/// Pre-fault measurement starts after slow-start / discovery warm-up.
const sim::Time kPreStart = 150 * sim::kMillisecond;
/// A bucket needs this many mice completions to count as evidence of a
/// healthy fabric; thinner buckets during the outage mean flows are
/// stalled, which is itself a failure to recover.
constexpr int kMinSamples = 5;

struct FctBucket {
  double sum_ms{0.0};
  int n{0};
};

struct SchemeOutcome {
  double pre_fct_ms{0.0};
  double inflation_x{0.0};
  double recovery_ms{-1.0};
  std::uint64_t jobs{0};
  std::uint64_t evictions{0};
  std::uint64_t readmissions{0};
  std::uint64_t audit_violations{0};
};

std::string scheme_key(harness::Scheme s) {
  std::string key = harness::scheme_name(s);
  for (char& c : key) {
    c = c == '-' ? '_' : static_cast<char>(std::tolower(c));
  }
  return key;
}

SchemeOutcome run_scheme(harness::Scheme scheme, int jobs_per_conn) {
  telemetry::current_scope().begin_run();

  harness::ExperimentConfig cfg = harness::make_testbed_profile();
  cfg.scheme = scheme;
  cfg.seed = 1;
  cfg.discovery.probe_interval = 250 * sim::kMillisecond;
  cfg.clove_congestion_expiry = 20 * sim::kMillisecond;
  cfg.path_health.enabled = true;
  // Slow fabric convergence (vs the example's 30ms): the regime where
  // edge-based recovery earns its keep. Until the fabric reroutes, half of
  // S2's downlink hashes keep pointing into the dead link; the path-health
  // monitor evicts those outer ports within a few keepalive timeouts while
  // ECMP keeps feeding them for the full window.
  cfg.fault_plan.route_convergence = 250 * sim::kMillisecond;
  cfg.fault_plan.add(kFailAt, fault::FaultKind::kLinkDown, "L2->S2#0");
  cfg.fault_plan.add(kRestoreAt, fault::FaultKind::kLinkUp, "L2->S2#0");
  cfg.max_sim_time = 2 * sim::kSecond;

  harness::Testbed tb(cfg);
  tb.start_discovery();

  workload::ClientServerConfig wl;
  wl.load = 0.45;
  wl.jobs_per_conn = jobs_per_conn;
  wl.conns_per_client = 2;
  workload::ClientServerWorkload ws(tb.simulator(), tb.workload_config(wl),
                                    tb.clients(), tb.servers());

  std::vector<FctBucket> buckets;
  double pre_sum = 0.0, post_sum = 0.0;
  int pre_n = 0, post_n = 0;
  ws.on_job = [&](std::uint64_t size, sim::Time arrival, sim::Time finished) {
    if (size >= stats::FctRecorder::kMiceMaxBytes) return;
    const double fct_ms = sim::to_milliseconds(finished - arrival);
    if (arrival >= kPreStart && arrival < kFailAt) {
      pre_sum += fct_ms;
      ++pre_n;
    }
    if (arrival >= kFailAt && arrival < kFailAt + kConvergence) {
      post_sum += fct_ms;
      ++post_n;
    }
    const auto idx = static_cast<std::size_t>(arrival / kBucket);
    if (idx >= buckets.size()) buckets.resize(idx + 1);
    buckets[idx].sum_ms += fct_ms;
    ++buckets[idx].n;
  };
  ws.start([&] { tb.simulator().stop(); });
  tb.simulator().run(cfg.max_sim_time);

  SchemeOutcome out;
  out.jobs = ws.jobs_done();
  out.pre_fct_ms = pre_n > 0 ? pre_sum / pre_n : 0.0;
  out.inflation_x = (post_n > 0 && out.pre_fct_ms > 0.0)
                        ? (post_sum / post_n) / out.pre_fct_ms
                        : 0.0;

  // Recovery: walk the arrival-time buckets from the failure to the link's
  // return; a bucket is "bad" when the mean FCT of the mice issued in it
  // exceeds 1.2x the pre-fault mean (or too few mice arrived at all —
  // traffic dried up). Recovery time is the end of the last bad bucket; a
  // bad final bucket means the scheme never recovered while the link was
  // down.
  const auto first = static_cast<std::size_t>(kFailAt / kBucket);
  const auto last = static_cast<std::size_t>(kRestoreAt / kBucket);
  double recovered_at = 0.0;
  bool never = false;
  for (std::size_t i = first; i < last; ++i) {
    const FctBucket b = i < buckets.size() ? buckets[i] : FctBucket{};
    const double mean = b.n > 0 ? b.sum_ms / b.n : 0.0;
    const bool bad = b.n < kMinSamples || mean > 1.2 * out.pre_fct_ms;
    if (bad) {
      recovered_at =
          sim::to_milliseconds(static_cast<sim::Time>(i + 1) * kBucket) -
          sim::to_milliseconds(kFailAt);
      never = (i + 1 == last);
    }
  }
  out.recovery_ms = never ? -1.0 : recovered_at;

  for (auto* c : tb.clients()) {
    if (const auto* ph = c->path_health()) {
      out.evictions += ph->stats().evictions;
      out.readmissions += ph->stats().readmissions;
    }
  }

  out.audit_violations =
      harness::export_flight(tb, "fault_" + scheme_key(scheme)).audit.total();
  return out;
}

}  // namespace

int main() {
  using namespace clove;

  const int fault_jobs = bench::env_int("CLOVE_FAULT_JOBS", 300);
  harness::BenchScale scale;
  scale.jobs_per_conn = fault_jobs;
  scale.seeds = 1;
  scale.conns_per_client = 2;

  bench::Artifact artifact("BENCH_fault", "link-failure recovery dynamics "
                           "(paper §5.2 / Fig. 4c, DESIGN.md §8)", scale);
  bench::print_header("Fault recovery: time-to-recover after a mid-run "
                      "S2-L2 link failure",
                      "paper §5.2 failure dynamics (scale: CLOVE_FAULT_JOBS)",
                      scale);
  std::printf("fault plan: link_down L2->S2#0 @ %.0fms (250ms route "
              "convergence), link_up @ %.0fms\n\n",
              sim::to_milliseconds(kFailAt), sim::to_milliseconds(kRestoreAt));

  const std::vector<harness::Scheme> schemes = {
      harness::Scheme::kEcmp,
      harness::Scheme::kEdgeFlowlet,
      harness::Scheme::kCloveEcn,
      harness::Scheme::kCloveInt,
  };

  harness::ParallelRunner runner;
  std::vector<std::function<SchemeOutcome()>> fns;
  fns.reserve(schemes.size());
  for (harness::Scheme s : schemes) {
    fns.push_back([s, fault_jobs] { return run_scheme(s, fault_jobs); });
  }
  const std::vector<SchemeOutcome> results =
      runner.map<SchemeOutcome>(std::move(fns));

  std::printf("%-14s %16s %14s %14s %10s %8s\n", "scheme", "pre-fault FCT",
              "inflation", "recovery", "evictions", "readmits");
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const SchemeOutcome& r = results[i];
    const std::string key = scheme_key(schemes[i]);
    char recov[32];
    if (r.recovery_ms < 0.0) {
      std::snprintf(recov, sizeof recov, "%s", "never");
    } else {
      std::snprintf(recov, sizeof recov, "%.0f ms", r.recovery_ms);
    }
    std::printf("%-14s %13.2f ms %13.2fx %14s %10llu %8llu%s\n",
                harness::scheme_name(schemes[i]).c_str(), r.pre_fct_ms,
                r.inflation_x, recov,
                static_cast<unsigned long long>(r.evictions),
                static_cast<unsigned long long>(r.readmissions),
                r.audit_violations == 0 ? "" : "  [AUDIT VIOLATIONS]");
    artifact.add_value(key + ".pre_fail_mice_fct_ms", r.pre_fct_ms);
    artifact.add_value(key + ".fct_inflation_x", r.inflation_x);
    artifact.add_value(key + ".recovery_ms", r.recovery_ms);
  }
  std::printf("\nrecovery = mean FCT of mice issued in a 50ms bucket back "
              "within 20%% of the pre-fault mean (and staying there)\n"
              "while the link is down; 'never' = still inflated when the "
              "link returns at %.0fms. inflation = blackhole-window\n"
              "arrivals [fail, fail+250ms) vs pre-fault.\n",
              sim::to_milliseconds(kRestoreAt));
  return 0;
}
