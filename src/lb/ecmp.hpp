#pragma once

#include <set>
#include <utility>

#include "lb/pick.hpp"
#include "lb/policy.hpp"

namespace clove::lb {

/// The status-quo baseline (§5 "ECMP"): the outer source port is a hash of
/// the inner 5-tuple, constant for the flow's lifetime, so the physical
/// fabric's ECMP pins every flow to one path regardless of congestion.
///
/// With `migrate_on_evict` the policy additionally honors path-health
/// evictions (the MPTCP-over-edge configuration of §5): evicted (dst, port)
/// pairs are excluded and the hash is re-salted per attempt until it lands on
/// a live port — still deterministic and congestion-oblivious, but no longer
/// blackhole-pinned. Eviction data requires the traceroute/path-health
/// machinery, so needs_discovery() is true only in this mode; the plain
/// baseline stays discovery-free and never recovers (by design).
class EcmpPolicy : public Policy {
 public:
  using Policy::pick_port;

  explicit EcmpPolicy(bool migrate_on_evict = false)
      : migrate_(migrate_on_evict) {}

  std::uint16_t pick_port(const net::Packet& inner, net::IpAddr dst,
                          sim::Time now, PickInfo* info) override {
    (void)now;
    if (info != nullptr) *info = PickInfo{};  // per-flow hash, no flowlets
    std::uint16_t port = hash_port(inner.inner, kSalt);
    if (migrate_ && !evicted_.empty()) {
      // Bounded re-hash: every live port is reachable within kEphemeralCount
      // salts; give up back to the base pick if somehow all are evicted.
      for (std::uint32_t attempt = 1;
           attempt <= overlay::kEphemeralCount &&
           evicted_.count({dst, port}) != 0;
           ++attempt) {
        port = hash_port(inner.inner, kSalt + attempt);
      }
    }
    return port;
  }

  void on_path_evicted(net::IpAddr dst, std::uint16_t port,
                       sim::Time /*now*/) override {
    if (migrate_) evicted_.insert({dst, port});
  }

  void on_paths_updated(net::IpAddr dst,
                        const overlay::PathSet& paths) override {
    if (!migrate_) return;
    // A republished set readmits its members: drop eviction marks for ports
    // the daemon once again advertises toward this destination.
    for (const overlay::PathInfo& p : paths.paths) evicted_.erase({dst, p.port});
  }

  [[nodiscard]] bool needs_discovery() const override { return migrate_; }

  [[nodiscard]] std::string name() const override {
    return migrate_ ? "ecmp-migrate" : "ecmp";
  }

 private:
  /// Per-flow hash salt; a migrate re-hash adds the attempt number.
  static constexpr std::uint32_t kSalt = 0xEC3Bu;

  bool migrate_;
  /// Evicted (dst, port) pairs; ordered so behavior is deterministic and
  /// iteration (tests) is stable.
  std::set<std::pair<net::IpAddr, std::uint16_t>> evicted_;
};

}  // namespace clove::lb
