#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "telemetry/flight_recorder.hpp"

namespace clove::telemetry {
class Scope;
}

namespace clove::net {

class Link;
class ShardDomain;

/// The staging buffer of one cross-shard link direction. While a shard runs
/// a lookahead window, its outbound cross-shard packets are parked here
/// (field copies — the source pool gets its packet back immediately); at the
/// next barrier the coordinator drains every channel single-threaded and
/// schedules the deliveries on the destination shard's simulator.
///
/// Determinism contract: entries are staged in source-event order (per-link
/// tx completions are monotone in time), channels drain in creation order
/// (== link id order, a pure function of topology construction), and the
/// destination EventQueue breaks same-timestamp ties by insertion seq — so
/// cross-shard arrivals order by (timestamp, channel creation order, staging
/// order) no matter how many worker threads ran the window.
class ShardChannel {
 public:
  ShardChannel(Link* link, int src_shard, int dst_shard)
      : link_(link), src_shard_(src_shard), dst_shard_(dst_shard) {}

  ShardChannel(const ShardChannel&) = delete;
  ShardChannel& operator=(const ShardChannel&) = delete;

  /// Park a packet for delivery at `deliver_at` (source-shard thread only).
  /// Takes the live journey out of the calling thread's flight recorder so
  /// the destination shard's recorder can adopt it at the drain.
  void stage(sim::Time deliver_at, PacketPtr pkt);

  /// The owning link went down: every staged packet is lost. Records the
  /// drops against the calling thread's flight recorder (the fault injector
  /// runs this under the source shard's scope).
  void flush_down(sim::Time now);

  [[nodiscard]] std::size_t staged_count() const { return staged_.size(); }
  [[nodiscard]] int src_shard() const { return src_shard_; }
  [[nodiscard]] int dst_shard() const { return dst_shard_; }
  [[nodiscard]] Link* link() const { return link_; }

 private:
  friend class ShardDomain;

  struct Staged {
    sim::Time at{0};
    bool has_journey{false};
    telemetry::Journey journey{};
    Packet pkt{};  ///< copy (path record included); uid preserved
  };

  Link* link_;
  int src_shard_;
  int dst_shard_;
  std::vector<Staged> staged_;
};

/// Everything one sharded run shares across shards: the per-shard
/// simulators (shard 0 is the caller's), the cross-shard channels, the
/// conservative lookahead bound, and the globally ordered action list
/// (faults, route recomputes) that must execute at a quiescent barrier.
///
/// Construction order: create the domain, attach it to a Topology
/// (set_shard_domain) BEFORE building the fabric, then hand both to
/// harness::ShardRunner. Each shard's PacketPool is pre-created here on the
/// construction thread with a disjoint uid range ((shard+1) << 48), so
/// worker threads never race the lazy pool creation and journeys keyed by
/// uid stay unique fabric-wide.
class ShardDomain {
 public:
  static constexpr std::uint64_t kUidStride = 1ull << 48;

  ShardDomain(sim::Simulator& main_sim, int shards, std::uint64_t seed = 1);
  ~ShardDomain();

  ShardDomain(const ShardDomain&) = delete;
  ShardDomain& operator=(const ShardDomain&) = delete;

  [[nodiscard]] int shard_count() const { return n_; }
  [[nodiscard]] sim::Simulator& sim(int shard) {
    return shard == 0 ? main_ : *extra_[static_cast<std::size_t>(shard - 1)];
  }
  /// Which shard owns `s`, or 0 when it is not one of ours.
  [[nodiscard]] int shard_of_sim(const sim::Simulator* s) const;

  // --- wiring (topology build time) ---------------------------------------
  ShardChannel* make_channel(Link* link, int src_shard, int dst_shard);
  /// Fold a cross-shard link's propagation delay into the lookahead bound.
  void note_lookahead(sim::Time propagation) {
    if (propagation < lookahead_) lookahead_ = propagation;
  }
  /// Conservative window width: the minimum latency any event needs to
  /// cross a shard boundary. kTimeNever when no cross-shard link exists.
  [[nodiscard]] sim::Time lookahead() const { return lookahead_; }

  // --- per-shard telemetry (set by harness::ShardRunner) ------------------
  void set_scope(int shard, telemetry::Scope* scope) {
    scopes_[static_cast<std::size_t>(shard)] = scope;
  }
  [[nodiscard]] telemetry::Scope* scope(int shard) const {
    return scopes_[static_cast<std::size_t>(shard)];
  }
  [[nodiscard]] telemetry::FlightRecorder* flight_of(int shard) const;
  /// Route recompute touches switches in every shard, so every shard's
  /// flight recorder gets the ordering-amnesty notification.
  void broadcast_route_change();

  // --- global actions (faults, route recomputes) --------------------------
  /// Register `fn` to run single-threaded at simulated time `at`, with all
  /// shards quiesced and their clocks advanced to `at`. Same-time actions
  /// run in registration order, matching the serial event queue's tiebreak
  /// for actions scheduled at arm time.
  void at_global(sim::Time at, std::function<void()> fn);
  [[nodiscard]] sim::Time next_global_time() const;
  [[nodiscard]] bool has_globals() const { return !globals_.empty(); }
  /// Run every global action with at <= t in (at, seq) order (actions may
  /// register new ones — a fault schedules its convergence recompute).
  void run_globals_until(sim::Time t);

  // --- barrier-time coordination (harness::ShardRunner) -------------------
  /// Drain every channel: re-home staged packets into the destination
  /// shard's pool and schedule their deliveries. Coordinator thread only,
  /// with all shards parked at the barrier.
  void drain_channels();

  /// Earliest pending event across all shards (kTimeNever when all idle).
  [[nodiscard]] sim::Time next_event_time();
  [[nodiscard]] std::uint64_t total_events() const;
  [[nodiscard]] std::size_t max_queue_hwm() const;

 private:
  sim::Simulator& main_;
  int n_;
  std::vector<std::unique_ptr<sim::Simulator>> extra_;
  std::vector<std::unique_ptr<ShardChannel>> channels_;
  std::vector<telemetry::Scope*> scopes_;

  struct GlobalAction {
    sim::Time at{0};
    std::uint64_t seq{0};
    std::function<void()> fn;
  };
  std::vector<GlobalAction> globals_;
  std::uint64_t global_seq_{0};
  sim::Time lookahead_{sim::kTimeNever};
};

}  // namespace clove::net
