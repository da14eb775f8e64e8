// Tests for harness::ParallelRunner and the determinism guarantees parallel
// sweeps make: results arrive in input order, every task runs under its own
// telemetry scope, and an experiment's outcome is bit-identical for any
// thread count at equal seeds.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/parallel_runner.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/scope.hpp"
#include "workload/client_server.hpp"

namespace clove::harness {
namespace {

TEST(ParallelRunner, MapReturnsResultsInInputOrder) {
  ParallelRunner runner(4);
  std::vector<std::function<int()>> fns;
  for (int i = 0; i < 64; ++i) {
    fns.push_back([i] { return i * i; });
  }
  const std::vector<int> out = runner.map<int>(std::move(fns));
  ASSERT_EQ(out.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(ParallelRunner, RunsEveryTaskExactlyOnce) {
  ParallelRunner runner(8);
  std::atomic<int> count{0};
  std::vector<ParallelRunner::Task> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  runner.run_all(std::move(tasks));
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelRunner, SingleThreadRunsInline) {
  ParallelRunner runner(1);
  EXPECT_EQ(runner.threads(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(3);
  std::vector<ParallelRunner::Task> tasks;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    tasks.push_back([&ids, i] { ids[i] = std::this_thread::get_id(); });
  }
  runner.run_all(std::move(tasks));
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(ParallelRunner, PropagatesFirstTaskException) {
  ParallelRunner runner(4);
  std::vector<ParallelRunner::Task> tasks;
  tasks.push_back([] {});
  tasks.push_back([] { throw std::runtime_error("boom"); });
  tasks.push_back([] {});
  EXPECT_THROW(runner.run_all(std::move(tasks)), std::runtime_error);
}

TEST(ParallelRunner, ThreadsEnvKnobIsHonored) {
  ::setenv("CLOVE_THREADS", "3", 1);
  EXPECT_EQ(default_threads(), 3u);
  ParallelRunner r;
  EXPECT_EQ(r.threads(), 3u);
  ::setenv("CLOVE_THREADS", "1", 1);
  EXPECT_EQ(default_threads(), 1u);
  ::unsetenv("CLOVE_THREADS");
  EXPECT_GE(default_threads(), 1u);
}

TEST(ParallelRunner, TasksGetIsolatedTelemetryScopes) {
  // Each task records into a fresh scope inheriting the submitter's
  // settings; the submitter's own trace ring must stay untouched, and each
  // task sees only its own events.
  telemetry::Scope outer{telemetry::ScopeSettings{true,
                                                  telemetry::TraceLog::kDefaultCapacity,
                                                  telemetry::kAllCategories}};
  telemetry::ScopeGuard guard(outer);
  ParallelRunner runner(4);
  std::vector<std::function<double()>> fns;
  for (int i = 0; i < 8; ++i) {
    fns.push_back([i]() -> double {
      EXPECT_NE(&telemetry::current_scope(), nullptr);
      EXPECT_TRUE(telemetry::enabled());  // inherited from the submitter
      for (int n = 0; n <= i; ++n) {
        telemetry::trace(telemetry::Category::kWeight, n, "task",
                         "test.parallel");
      }
      return static_cast<double>(telemetry::current_scope().trace().size());
    });
  }
  const auto out = runner.map<double>(std::move(fns));
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(i)], i + 1.0)
        << "task saw events from another task's scope";
  }
  // The submitter's ring never saw an event at all.
  EXPECT_EQ(outer.trace().size(), 0u);
}

// --- end-to-end determinism ------------------------------------------------

ExperimentConfig tiny_config() {
  ExperimentConfig cfg = make_testbed_profile();
  cfg.scheme = Scheme::kCloveEcn;
  cfg.asymmetric = true;
  cfg.seed = 1;
  return cfg;
}

workload::ClientServerConfig tiny_workload() {
  workload::ClientServerConfig wl;
  wl.load = 0.4;
  wl.jobs_per_conn = 4;
  wl.conns_per_client = 1;
  return wl;
}

/// Everything an experiment produces, flattened to an exact-comparable
/// string: every numeric result field bit-exact (%a) plus the full metrics
/// snapshot JSON.
std::string result_digest(const ExperimentResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%a|%a|%a|%a|%a|%llu|%llu|%llu|%llu|%llu|%llu|",
                r.avg_fct_s, r.mice_avg_fct_s, r.elephant_avg_fct_s,
                r.p99_fct_s, r.mice_p99_fct_s,
                static_cast<unsigned long long>(r.jobs),
                static_cast<unsigned long long>(r.timeouts),
                static_cast<unsigned long long>(r.fast_retransmits),
                static_cast<unsigned long long>(r.ecn_marks),
                static_cast<unsigned long long>(r.drops),
                static_cast<unsigned long long>(r.events));
  return std::string(buf) + r.metrics.to_json().dump();
}

TEST(ParallelRunner, ExperimentResultsAreBitIdenticalAcrossThreadCounts) {
  // The tentpole guarantee: CLOVE_THREADS=1 and CLOVE_THREADS=8 produce
  // byte-identical per-point results (FCT stats, counters, and the telemetry
  // metrics digest) at equal seeds.
  telemetry::Scope outer{telemetry::ScopeSettings{
      true, telemetry::TraceLog::kDefaultCapacity, telemetry::kAllCategories}};
  telemetry::ScopeGuard guard(outer);

  const auto cfg = tiny_config();
  const auto wl = tiny_workload();
  auto sweep = [&](unsigned threads) {
    ParallelRunner runner(threads);
    std::vector<std::function<std::string()>> fns;
    for (int i = 0; i < 4; ++i) {
      fns.push_back(
          [&cfg, &wl] { return result_digest(run_fct_experiment(cfg, wl)); });
    }
    return runner.map<std::string>(std::move(fns));
  };

  const auto serial = sweep(1);
  const auto parallel = sweep(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "point " << i;
    EXPECT_EQ(serial[i], serial[0]) << "same config+seed must repeat exactly";
  }
  EXPECT_FALSE(serial[0].empty());
}

}  // namespace
}  // namespace clove::harness
