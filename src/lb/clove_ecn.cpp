#include "lb/clove_ecn.hpp"

#include <algorithm>
#include <cstdio>

#include "telemetry/hub.hpp"

namespace clove::lb {

void CloveEcnPolicy::on_paths_updated(net::IpAddr dst,
                                      const overlay::PathSet& paths) {
  DstState& st = dsts_[dst];
  refresh_paths(st.paths, paths, [](PathState& to, const PathState& from) {
    to.weight = from.weight;
    to.congested_at = from.congested_at;
    to.latency = from.latency;
  });

  // Normalize; brand-new paths start at the uniform share.
  const double uniform = st.paths.empty() ? 0.0 : 1.0 / st.paths.size();
  double total = 0.0;
  for (auto& p : st.paths) {
    if (p.weight <= 0.0) p.weight = uniform;
    total += p.weight;
  }
  if (total > 0.0) {
    for (auto& p : st.paths) p.weight /= total;
  }

  // Announce the new port->path mapping so trace consumers can retire ports
  // from earlier discovery rounds. on_paths_updated has no time argument
  // (discovery drives it), so the events carry the last data-path timestamp
  // this policy has seen.
  trace_weights(dst, st, last_now_, "remap");
}

void CloveEcnPolicy::trace_weights(net::IpAddr dst, const DstState& st,
                                   sim::Time now, const char* tag,
                                   const PathState* reduced) const {
  if (!telemetry::tracing()) return;
  for (const auto& p : st.paths) {
    char detail[64];
    std::snprintf(detail, sizeof(detail), "dst %u via %u %s", dst,
                  p.info.hops.size() > 1 ? p.info.hops[1].node : 0,
                  &p == reduced ? "ecn_reduced" : tag);
    telemetry::trace(telemetry::Category::kWeight, now, owner(),
                     "clove.weight", detail, p.weight, p.info.port);
  }
}

void CloveEcnPolicy::apply_recovery(DstState& st, sim::Time now) {
  if (st.paths.empty() || cfg_.recovery_interval <= 0) return;
  const std::int64_t steps = (now - st.last_recovery) / cfg_.recovery_interval;
  if (steps <= 0) return;
  st.last_recovery += steps * cfg_.recovery_interval;
  const double uniform = 1.0 / st.paths.size();
  // w <- w*(1-r)^steps + uniform*(1-(1-r)^steps)
  double keep = 1.0;
  const double f = 1.0 - cfg_.recovery_rate;
  for (std::int64_t i = 0; i < std::min<std::int64_t>(steps, 64); ++i) keep *= f;
  for (auto& p : st.paths) {
    p.weight = p.weight * keep + uniform * (1.0 - keep);
  }
}

std::size_t CloveEcnPolicy::wrr_pick(DstState& st) {
  return smooth_wrr(
      st.paths.size(), [&](std::size_t i) { return st.paths[i].weight; },
      [&](std::size_t i) -> double& { return st.paths[i].wrr_credit; });
}

sim::Time CloveEcnPolicy::gap_for(const DstState* st) const {
  if (!cfg_.adaptive_gap || st == nullptr) return cfg_.flowlet_gap;
  // §7: widen the gap by the observed one-way-delay spread between paths so
  // a flowlet moving from a slow path to a fast one cannot overtake its
  // predecessor's tail.
  sim::Time lo = sim::kTimeNever, hi = 0;
  for (const auto& p : st->paths) {
    if (p.latency < 0) continue;
    lo = std::min(lo, p.latency);
    hi = std::max(hi, p.latency);
  }
  if (lo == sim::kTimeNever || hi <= lo) return cfg_.flowlet_gap;
  return cfg_.flowlet_gap +
         static_cast<sim::Time>(cfg_.adaptive_gap_factor *
                                static_cast<double>(hi - lo));
}

std::uint16_t CloveEcnPolicy::pick_port(const net::Packet& inner,
                                        net::IpAddr dst, sim::Time now,
                                        PickInfo* info) {
  last_now_ = now;
  auto it = dsts_.find(dst);
  DstState* st = it == dsts_.end() ? nullptr : &it->second;
  const auto t = flowlets_.touch(inner.inner, now, gap_for(st));
  if (st != nullptr) apply_recovery(*st, now);
  std::size_t idx = 0;
  const std::uint16_t port = flowlet_pick(
      t, inner.inner, kHashSalt, st == nullptr ? nullptr : &st->paths, "wrr",
      info, [](const PathState& p) { return p.weight; },
      [&] { return idx = wrr_pick(*st); });
  if (t.new_flowlet && st != nullptr && !st->paths.empty() &&
      telemetry::tracing()) {
    telemetry::trace(telemetry::Category::kFlowlet, now, owner(),
                     "clove.flowlet_new", "dst " + std::to_string(dst),
                     st->paths[idx].weight, port);
  }
  return port;
}

void CloveEcnPolicy::on_feedback(net::IpAddr dst, const net::CloveFeedback& fb,
                                 sim::Time now) {
  last_now_ = now;
  if (!fb.present) return;
  auto it = dsts_.find(dst);
  if (it == dsts_.end()) return;
  DstState& st = it->second;

  if (cfg_.adaptive_gap && fb.has_latency) {
    for (auto& p : st.paths) {
      if (p.info.port == fb.port) {
        p.latency = p.latency < 0 ? fb.latency : (p.latency + fb.latency) / 2;
        break;
      }
    }
  }
  if (!fb.ecn_set) return;
  apply_recovery(st, now);

  PathState* congested = nullptr;
  for (auto& p : st.paths) {
    if (p.info.port == fb.port) {
      congested = &p;
      break;
    }
  }
  if (congested == nullptr) return;  // feedback for a stale mapping
  congested->congested_at = now;

  // Reduce the congested path's weight and spread the removed mass equally
  // over the uncongested paths (§3.2 "Reacting to Congestion").
  double delta = congested->weight * cfg_.reduce_factor;
  if (congested->weight - delta < cfg_.min_weight) {
    delta = std::max(0.0, congested->weight - cfg_.min_weight);
  }
  std::vector<PathState*> uncongested;
  for (auto& p : st.paths) {
    if (&p != congested && !is_congested(p, now)) uncongested.push_back(&p);
  }
  if (uncongested.empty() || delta <= 0.0) return;
  congested->weight -= delta;
  const double share = delta / static_cast<double>(uncongested.size());
  for (PathState* p : uncongested) p->weight += share;

  if (on_port_degraded) on_port_degraded(dst, fb.port);

  // Emit the full post-update weight vector so a trace capture shows the
  // WRR mass migrating between paths over time.
  trace_weights(dst, st, now, "spread", congested);
}

void CloveEcnPolicy::on_path_evicted(net::IpAddr dst, std::uint16_t port,
                                     sim::Time now) {
  last_now_ = now;
  auto it = dsts_.find(dst);
  if (it == dsts_.end()) return;
  DstState& st = it->second;
  const auto pit =
      std::find_if(st.paths.begin(), st.paths.end(),
                   [port](const PathState& p) { return p.info.port == port; });
  if (pit == st.paths.end()) return;
  st.paths.erase(pit);

  // Renormalize proportionally: the dead path's mass spreads over survivors
  // in the ratio they already held (unlike ECN reduction, nothing here says
  // which survivor deserves it more).
  double total = 0.0;
  for (const auto& p : st.paths) total += p.weight;
  if (total > 0.0) {
    for (auto& p : st.paths) p.weight /= total;
  } else if (!st.paths.empty()) {
    const double uniform = 1.0 / static_cast<double>(st.paths.size());
    for (auto& p : st.paths) p.weight = uniform;
  }

  trace_weights(dst, st, now, "evict_renorm");
}

bool CloveEcnPolicy::all_paths_congested(net::IpAddr dst, sim::Time now) const {
  auto it = dsts_.find(dst);
  if (it == dsts_.end() || it->second.paths.empty()) return false;
  for (const auto& p : it->second.paths) {
    if (!is_congested(p, now)) return false;
  }
  return true;
}

std::vector<double> CloveEcnPolicy::weights(net::IpAddr dst) const {
  std::vector<double> w;
  auto it = dsts_.find(dst);
  if (it == dsts_.end()) return w;
  for (const auto& p : it->second.paths) w.push_back(p.weight);
  return w;
}

}  // namespace clove::lb
