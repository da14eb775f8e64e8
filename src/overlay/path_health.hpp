#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "lb/policy.hpp"
#include "overlay/paths.hpp"
#include "overlay/traceroute.hpp"
#include "sim/simulator.hpp"

namespace clove::overlay {

/// Knobs of the source-side path-health monitor (DESIGN.md §8).
struct PathHealthConfig {
  bool enabled{false};
  /// Staleness-scan cadence.
  sim::Time check_interval{1 * sim::kMillisecond};
  /// A port with traffic offered but no evidence of life (feedback or
  /// keepalive ack) for this long becomes suspect. Pick ~k x RTT: long
  /// enough that an idle-but-healthy reverse path (ECN feedback is quiet
  /// when nothing is congested) rarely trips it, short enough to beat the
  /// guest TCP's RTO.
  sim::Time staleness{4 * sim::kMillisecond};
  /// Consecutive unanswered keepalives before a suspect port is evicted.
  int evict_after_probes{3};
  /// Delay before the first keepalive retry; doubles (backoff_factor) up to
  /// probe_backoff_max. Evicted ports keep re-probing at the capped rate so
  /// a returning link is re-discovered without operator action.
  sim::Time probe_backoff{500 * sim::kMicrosecond};
  double backoff_factor{2.0};
  sim::Time probe_backoff_max{100 * sim::kMillisecond};
  /// Keep sending (slow) keepalives to evicted ports; an answer triggers an
  /// immediate discovery round so the path set heals.
  bool reprobe_evicted{true};
};

/// Monitors the liveness of every (destination, outer port) path a source
/// hypervisor routes over, and drives recovery when one dies.
///
/// State machine per port (DESIGN.md §8):
///
///   live --staleness--> suspect --N misses--> evicted --ack--> re-probed
///    ^                     |  ack                 |  (discovery republish)
///    +---------------------+---------<------------+
///
/// Evidence of life is any Clove feedback naming the port, or a keepalive
/// ack. Staleness only starts while traffic is actually offered (last send
/// newer than last evidence): an idle path is unknown, not dead. Eviction
/// notifies the policy (Policy::on_path_evicted) and the traceroute daemon
/// (TracerouteDaemon::evict_port), which republishes the shrunken set so
/// every consumer renormalizes at once.
class PathHealthMonitor {
 public:
  enum class PortHealth : std::uint8_t { kLive = 0, kSuspect, kEvicted };

  struct Stats {
    std::uint64_t keepalives_sent{0};
    std::uint64_t keepalive_acks{0};
    std::uint64_t suspects{0};
    std::uint64_t evictions{0};
    std::uint64_t readmissions{0};
  };

  PathHealthMonitor(sim::Simulator& sim, std::string owner,
                    const PathHealthConfig& cfg, TracerouteDaemon* daemon,
                    lb::Policy* policy);

  /// Discovery published a (new) path set for dst: sync the monitored port
  /// map. Evicted entries survive the rebuild (they keep re-probing until
  /// readmitted or superseded).
  void on_paths_updated(net::IpAddr dst, const PathSet& paths);

  /// A data packet was routed over (dst, port).
  void note_sent(net::IpAddr dst, std::uint16_t port, sim::Time now);
  /// Evidence the path delivers: feedback naming the port arrived.
  void note_alive(net::IpAddr dst, std::uint16_t port, sim::Time now);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const PathHealthConfig& config() const { return cfg_; }
  /// Health of a monitored port; kLive for unknown ports (tests).
  [[nodiscard]] PortHealth health(net::IpAddr dst, std::uint16_t port) const;

  /// Fires on every eviction, after the policy was notified but before the
  /// daemon republishes the shrunken set. The hypervisor hooks this to fan
  /// the event out to its transport endpoints (TcpEndpoint::on_path_evicted)
  /// so stalled senders retransmit immediately instead of waiting the RTO.
  std::function<void(net::IpAddr dst, std::uint16_t port)> on_evict;

 private:
  struct PortState {
    PortHealth health{PortHealth::kLive};
    sim::Time last_evidence{0};
    sim::Time last_sent{-1};
    int misses{0};
    sim::Time backoff{0};
    bool probe_outstanding{false};
    bool in_set{true};  ///< present in the latest published path set
  };
  // std::map: iteration order (and thus keepalive send order) must be
  // deterministic for bit-identical runs.
  using PortMap = std::map<std::uint16_t, PortState>;

  void tick();
  void send_keepalive(net::IpAddr dst, std::uint16_t port);
  void schedule_retry(net::IpAddr dst, std::uint16_t port, sim::Time delay);
  void on_keepalive_result(net::IpAddr dst, std::uint16_t port, bool alive);
  void evict(net::IpAddr dst, std::uint16_t port);
  PortState* find(net::IpAddr dst, std::uint16_t port);

  sim::Simulator& sim_;
  std::string owner_;
  PathHealthConfig cfg_;
  TracerouteDaemon* daemon_;
  lb::Policy* policy_;
  std::map<net::IpAddr, PortMap> dsts_;
  bool tick_armed_{false};
  Stats stats_;
};

}  // namespace clove::overlay
