#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lb/policy.hpp"
#include "overlay/flowlet.hpp"
#include "overlay/paths.hpp"

namespace clove::lb {

// Pick building blocks shared by the edge policies: the port hash, the
// flowlet pick path, the signature-keyed path refresh and smooth WRR.

/// Outer source port from a hash of the inner tuple, drawn from the
/// ephemeral range. Every edge policy's hashed choice goes through here;
/// each keeps its own salt, so schemes never share a hash sequence.
[[nodiscard]] inline std::uint16_t hash_port(const net::FiveTuple& tuple,
                                             std::uint32_t salt) {
  return static_cast<std::uint16_t>(
      overlay::kEphemeralBase +
      net::hash_tuple(tuple, salt) % overlay::kEphemeralCount);
}

/// Edge-Flowlet's rule, and every flowlet policy's fallback while a
/// destination has no discovered paths: each new flowlet gets a fresh
/// hashed port (salted by the flowlet id); a live flowlet keeps its port.
inline std::uint16_t flowlet_hash_pick(const overlay::FlowletTracker::Touch& t,
                                       const net::FiveTuple& tuple,
                                       std::uint32_t salt, PickInfo* info) {
  if (info != nullptr) {
    info->new_flowlet = t.new_flowlet;
    info->flowlet_id = t.flowlet_id;
    info->reason = "flowlet-hash";
  }
  if (!t.new_flowlet) return t.port;
  const std::uint16_t port = hash_port(tuple, salt ^ t.flowlet_id);
  t.set_port(port);
  return port;
}

/// The flowlet pick path of the path-aware flowlet policies (Clove-ECN and
/// the least-signal schemes). `paths` is the destination's state (null or
/// empty: not discovered yet, so flowlet_hash_pick). A live flowlet stays on
/// its port while that port is still mapped; otherwise `pick()` returns the
/// index of the path the flowlet moves to. `metric(path)` is the operand
/// the flight recorder sees under `reason`.
template <class PathState, class Metric, class Pick>
std::uint16_t flowlet_pick(const overlay::FlowletTracker::Touch& t,
                           const net::FiveTuple& tuple, std::uint32_t salt,
                           const std::vector<PathState>* paths,
                           const char* reason, PickInfo* info,
                           const Metric& metric, const Pick& pick) {
  if (paths == nullptr || paths->empty()) {
    return flowlet_hash_pick(t, tuple, salt, info);
  }
  if (info != nullptr) {
    info->new_flowlet = t.new_flowlet;
    info->flowlet_id = t.flowlet_id;
    info->reason = reason;
    info->n_paths = static_cast<std::uint16_t>(paths->size());
  }
  if (!t.new_flowlet) {
    for (const PathState& p : *paths) {
      if (p.info.port == t.port) {
        if (info != nullptr) info->metric = metric(p);
        return t.port;
      }
    }
  }
  const PathState& p = (*paths)[pick()];
  t.set_port(p.info.port);
  if (info != nullptr) info->metric = metric(p);
  return p.info.port;
}

/// Rebuild a destination's per-path state for a fresh discovery result.
/// State carries across by path signature (§3.1 optimization): the same
/// physical path keeps what the policy learned about it when only the
/// source port that reaches it changed. `carry(fresh, old)` copies the
/// fields that survive; new paths start default-constructed.
template <class PathState, class Carry>
void refresh_paths(std::vector<PathState>& paths, const overlay::PathSet& fresh,
                   const Carry& carry) {
  std::unordered_map<std::string, PathState> old_by_sig;
  for (PathState& p : paths) old_by_sig.emplace(p.info.signature(), std::move(p));
  paths.clear();
  for (const overlay::PathInfo& info : fresh.paths) {
    PathState ps;
    ps.info = info;
    auto it = old_by_sig.find(info.signature());
    if (it != old_by_sig.end()) carry(ps, it->second);
    paths.push_back(std::move(ps));
  }
}

/// Smooth weighted round-robin over n paths: add each weight to its
/// credit, pick the largest credit, subtract the total. Deterministic and
/// burst-free. `credit(i)` returns a reference to path i's credit.
template <class Weight, class Credit>
std::size_t smooth_wrr(std::size_t n, const Weight& weight, const Credit& credit) {
  double total = 0.0;
  std::size_t best = 0;
  double best_credit = -1e300;
  for (std::size_t i = 0; i < n; ++i) {
    credit(i) += weight(i);
    total += weight(i);
    if (credit(i) > best_credit) {
      best_credit = credit(i);
      best = i;
    }
  }
  credit(best) -= total;
  return best;
}

}  // namespace clove::lb
