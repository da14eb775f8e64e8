#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "lb/pick.hpp"
#include "lb/policy.hpp"
#include "overlay/flowlet.hpp"
#include "sim/random.hpp"

namespace clove::lb {

/// The per-path feedback signal a least-signal policy routes on, and how
/// the scheme built on it presents itself. Data, not a subclass: the pick,
/// smoothing and expiry rules are the same for every signal.
struct LeastSignal {
  const char* name;        ///< Policy::name()
  const char* reason;      ///< PickInfo::reason of a path-aware pick
  std::uint32_t salt;      ///< flowlet-hash salt before discovery
  bool wants_ect;
  bool wants_int;
  bool net::CloveFeedback::*has;                 ///< feedback carries a sample
  double (*sample)(const net::CloveFeedback&);   ///< the sample, in metric units
};

/// Clove-INT (§3.2): the fabric inserts per-hop egress utilization via INT,
/// the destination hypervisor relays the max-path utilization, and new
/// flowlets go on the least-utilized path — utilization-aware rather than
/// merely congestion-aware, closing most of the gap to CONGA (§6.2).
inline constexpr LeastSignal kIntUtilization{
    "clove-int", "least-util", 0x117u, true, true,
    &net::CloveFeedback::has_util,
    [](const net::CloveFeedback& fb) { return fb.util; }};

/// Clove-Latency (§7 "Use of path latency"): for fabrics without INT and
/// with erratic ECN, NIC timestamps and synchronized clocks give each
/// packet's one-way delay (here stamped at encap, so clocks are perfectly
/// synchronized); the destination relays it per path, in microseconds.
inline constexpr LeastSignal kPathLatency{
    "clove-latency", "least-latency", 0x1a7u, false, false,
    &net::CloveFeedback::has_latency,
    [](const net::CloveFeedback& fb) { return sim::to_microseconds(fb.latency); }};

/// Routes each new flowlet on the discovered path whose fresh signal is
/// lowest; ties (e.g. all paths idle) are broken uniformly at random.
/// Samples are EWMA-smoothed per path and expire after kExpiry, after which
/// the path reads as 0 ("unknown"), so a path that stopped carrying traffic
/// becomes attractive again.
class LeastSignalPolicy : public Policy {
 public:
  static constexpr double kEwma = 0.5;
  static constexpr sim::Time kExpiry = 1 * sim::kMillisecond;

  explicit LeastSignalPolicy(const LeastSignal& signal,
                             sim::Time flowlet_gap = 100 * sim::kMicrosecond,
                             std::uint64_t seed = 0x117e)
      : sig_(signal), flowlets_(flowlet_gap), rng_(seed) {}

  using Policy::pick_port;

  std::uint16_t pick_port(const net::Packet& inner, net::IpAddr dst,
                          sim::Time now, PickInfo* info) override {
    const auto t = flowlets_.touch(inner.inner, now);
    auto it = dsts_.find(dst);
    const auto metric = [&](const PathState& p) { return effective(p, now); };
    return flowlet_pick(t, inner.inner, sig_.salt,
                        it == dsts_.end() ? nullptr : &it->second, sig_.reason,
                        info, metric, [&] { return least(it->second, now); });
  }

  void on_paths_updated(net::IpAddr dst, const overlay::PathSet& paths) override {
    refresh_paths(dsts_[dst], paths, [](PathState& to, const PathState& from) {
      to.value = from.value;
      to.updated = from.updated;
    });
  }

  void on_feedback(net::IpAddr dst, const net::CloveFeedback& fb,
                   sim::Time now) override {
    if (!fb.present || !(fb.*sig_.has)) return;
    auto it = dsts_.find(dst);
    if (it == dsts_.end()) return;
    for (auto& p : it->second) {
      if (p.info.port == fb.port) {
        const double sample = sig_.sample(fb);
        p.value = p.updated < 0 ? sample
                                : kEwma * sample + (1.0 - kEwma) * p.value;
        p.updated = now;
        return;
      }
    }
  }

  [[nodiscard]] bool wants_ect() const override { return sig_.wants_ect; }
  [[nodiscard]] bool wants_int() const override { return sig_.wants_int; }
  [[nodiscard]] bool needs_discovery() const override { return true; }
  [[nodiscard]] std::string name() const override { return sig_.name; }
  [[nodiscard]] overlay::FlowletTracker* flowlet_tracker() override {
    return &flowlets_;
  }

  /// The signal each path of dst reads at `now` (tests / telemetry).
  [[nodiscard]] std::vector<double> signals(net::IpAddr dst,
                                            sim::Time now) const {
    std::vector<double> out;
    auto it = dsts_.find(dst);
    if (it == dsts_.end()) return out;
    for (const auto& p : it->second) out.push_back(effective(p, now));
    return out;
  }

 private:
  struct PathState {
    overlay::PathInfo info;
    double value{0.0};
    sim::Time updated{-1};
  };
  using Paths = std::vector<PathState>;

  [[nodiscard]] static double effective(const PathState& p, sim::Time now) {
    if (p.updated < 0 || now - p.updated > kExpiry) return 0.0;
    return p.value;
  }

  std::size_t least(const Paths& paths, sim::Time now) {
    double best = 1e300;
    std::size_t chosen = 0;
    int n_best = 0;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      const double v = effective(paths[i], now);
      if (v < best - 1e-9) {
        best = v;
        chosen = i;
        n_best = 1;
      } else if (v <= best + 1e-9) {
        ++n_best;
        if (rng_.uniform_int(static_cast<std::uint64_t>(n_best)) == 0) chosen = i;
      }
    }
    return chosen;
  }

  LeastSignal sig_;
  overlay::FlowletTracker flowlets_;
  sim::Rng rng_;
  std::unordered_map<net::IpAddr, Paths> dsts_;
};

}  // namespace clove::lb
