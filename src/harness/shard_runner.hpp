#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/shard.hpp"
#include "prof/prof.hpp"
#include "sim/time.hpp"
#include "telemetry/scope.hpp"

namespace clove::fault {
class FaultInjector;
}  // namespace clove::fault

namespace clove::net {
class Topology;
}  // namespace clove::net

namespace clove::harness {

/// Shards for a sharded single-run simulation: the CLOVE_SHARDS environment
/// knob, else 1 (serial — the sharded machinery is never engaged).
[[nodiscard]] int default_shards();

/// Conservative-time coordinator for one sharded simulation run.
///
/// The fabric is pre-partitioned (Topology::begin_shard + a ShardDomain)
/// into per-pod event shards; this runner advances them in lookahead
/// windows: pick the earliest pending time W across shards, run every shard
/// independently over [W, W + lookahead), barrier, drain the cross-shard
/// staging channels, repeat. The lookahead is the minimum cross-shard link
/// propagation, so nothing staged inside a window can be due before the
/// window ends — shards never see a cross-shard event late, and the result
/// is bit-identical at any shard/thread count (pinned by test_shard.cpp).
///
/// Globally ordered actions (faults, route recomputes) registered via
/// ShardDomain::at_global force a window boundary at their timestamp and
/// run single-threaded with every shard clock aligned.
///
/// Threads: `threads` workers (capped at the shard count) persist across
/// run() calls; shard s is pinned to worker s % threads so profile
/// attribution is stable. The calling thread doubles as worker 0 and the
/// coordinator. With one worker (or one shard) everything runs inline on
/// the caller — no threads are spawned at all.
///
/// Telemetry: shard 0 records into the caller's ambient scope; shards 1+
/// each get a private Scope inheriting the ambient settings. Merge the
/// results with metrics_digest() (order-independent fold) or by reading the
/// scopes directly. When an engine profiler is active at construction,
/// each shard profiles into its own prof::Profiler; the destructor deposits
/// per-shard copies (Profiler::note_shard) and merges the totals into the
/// session profiler, with barrier wait measured under prof::kShardSync.
class ShardRunner {
 public:
  /// `threads` == 0 means harness::default_threads().
  explicit ShardRunner(net::ShardDomain& domain, unsigned threads = 0);
  ~ShardRunner();

  ShardRunner(const ShardRunner&) = delete;
  ShardRunner& operator=(const ShardRunner&) = delete;

  /// Advance every shard to `until` (inclusive, like Simulator::run) and
  /// execute all global actions due by then. Must be called from the
  /// constructing thread. Between calls the workers are parked, so the
  /// caller may inspect or mutate any shard's state.
  void run(sim::Time until);

  [[nodiscard]] unsigned workers() const { return p_; }
  [[nodiscard]] int shard_count() const { return n_; }
  [[nodiscard]] net::ShardDomain& domain() { return domain_; }
  /// The telemetry scope shard `s` records into (shard 0 = the ambient one).
  [[nodiscard]] telemetry::Scope& scope(int s) { return *scope_of_[s]; }

  /// Deterministic fold of the run's metrics — collect_metrics over `topo`
  /// and `faults` plus every shard scope's flight-recorder audits — one line
  /// per nonzero counter, sorted by (name, labels), summed across shards.
  /// Equal digests <=> every packet met the same fate (tx, drop, mark,
  /// delivery) per entity, so the determinism suite compares this string
  /// across shard/thread counts. Gauges (instantaneous-occupancy
  /// watermarks) are excluded: at an exactly-tied timestamp the arrival/
  /// dequeue interleave is an artifact of event insertion order, not of the
  /// modeled physics — see DESIGN.md §11.
  [[nodiscard]] std::string metrics_digest(
      const net::Topology& topo, const fault::FaultInjector* faults = nullptr);

  /// Number of lookahead windows executed so far (coordination granularity;
  /// exported by benches next to the shard_sync profile share).
  [[nodiscard]] std::uint64_t windows() const { return windows_; }

 private:
  void worker_loop(unsigned w);
  void run_shard(int s, sim::Time until_inclusive);
  void execute_window(sim::Time until_inclusive);
  void wait_for_workers();
  void publish(sim::Time until_inclusive);

  net::ShardDomain& domain_;
  int n_;        ///< shard count
  unsigned p_;   ///< worker count (<= n_), calling thread included
  std::uint64_t windows_{0};

  std::vector<telemetry::Scope*> scope_of_;  ///< per shard (0 = ambient)
  std::vector<std::unique_ptr<telemetry::Scope>> extra_scopes_;
  /// Per-shard profilers (empty when no engine profiler was active).
  std::vector<std::unique_ptr<prof::Profiler>> shard_profs_;

  // Worker handshake: the coordinator stores the window end, bumps gen_
  // (release); workers acquire gen_, run their shards, bump done_ (release);
  // the coordinator acquires done_ == p_ - 1 before touching shard state.
  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> gen_{0};
  std::atomic<std::uint64_t> done_{0};
  std::atomic<bool> quit_{false};
  sim::Time window_end_{0};  ///< published by gen_
};

}  // namespace clove::harness
