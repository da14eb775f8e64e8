#pragma once

#include <algorithm>
#include <cstdint>

#include "net/packet.hpp"
#include "sim/time.hpp"
#include "util/flat_map.hpp"

namespace clove::overlay {

/// Hypervisor-side flowlet detection (§3.2): packets of a flow separated by
/// an idle gap larger than `gap` form a new flowlet that may be re-routed.
/// The table also remembers the routing decision (outer source port) of the
/// current flowlet so every packet of a flowlet takes the same path.
///
/// Backed by util::FlatMap: touch() is one linear probe, returns a direct
/// entry handle so the caller stores its routing decision without a second
/// lookup, and amortizes expiry by sweeping a few slots per touch — entries
/// idle far longer than the gap (they would start a new flowlet anyway) are
/// dropped, so the table stops growing across long runs without O(table)
/// scans on the datapath.
class FlowletTracker {
 public:
  /// Slots examined per touch by the incremental expiry sweep.
  static constexpr std::size_t kSweepSlots = 8;

  explicit FlowletTracker(sim::Time gap = 100 * sim::kMicrosecond) : gap_(gap) {}

  struct Entry {
    sim::Time last_seen{-1};
    std::uint16_t port{0};
    std::uint32_t flowlet_id{0};
  };

  struct Touch {
    bool new_flowlet;
    std::uint32_t flowlet_id;
    std::uint16_t port;  ///< previous decision; valid when !new_flowlet
    Entry* entry;        ///< handle valid until the next touch()
    /// Store the routing decision for this flowlet without a second lookup.
    void set_port(std::uint16_t p) const { entry->port = p; }
  };

  /// Record a packet of `flow` at `now`, using the default gap.
  Touch touch(const net::FiveTuple& flow, sim::Time now) {
    return touch(flow, now, gap_);
  }

  /// Record a packet with an explicit gap (§7 "Flowlet optimization": the
  /// gap may adapt to the RTT spread between a destination's paths).
  Touch touch(const net::FiveTuple& flow, sim::Time now, sim::Time gap) {
    // Sweep before locating the entry so the returned handle is untouched;
    // erase only tombstones slots, never relocates them.
    const sim::Time idle = idle_timeout();
    table_.sweep(kSweepSlots, [&](const net::FiveTuple&, const Entry& e) {
      return now - e.last_seen > idle;
    });
    auto [e, inserted] = table_.try_emplace(flow);
    const bool fresh = !inserted && (now - e->last_seen <= gap);
    e->last_seen = now;
    if (fresh) return {false, e->flowlet_id, e->port, e};
    ++e->flowlet_id;
    ++flowlets_started_;
    return {true, e->flowlet_id, e->port, e};
  }

  /// Occupancy / probe-length digest of the backing FlatMap (engine
  /// profiler's table gauge; see prof::Profiler::note_table).
  [[nodiscard]] auto probe_stats() const { return table_.probe_stats(); }

  void set_gap(sim::Time gap) { gap_ = gap; }
  [[nodiscard]] sim::Time gap() const { return gap_; }
  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] std::uint64_t flowlets_started() const { return flowlets_started_; }

  /// Idle age beyond which the incremental sweep drops an entry. The floor
  /// of one second matters: Clove's adaptive-gap optimization (§7) can
  /// widen the effective flowlet gap by the path-latency spread, and an
  /// eviction below that widened gap would split a live flowlet across
  /// paths (observed as washed-out weight adaptation). One second is far
  /// above any queueing-delay spread yet still bounds the table for
  /// long-running sweeps.
  [[nodiscard]] sim::Time idle_timeout() const {
    return std::max(100 * gap_, sim::kSecond);
  }

  /// Housekeeping: drop entries idle longer than `idle` (full scan; kept for
  /// tests and explicit sweeps — the datapath uses the touch-time sweep).
  void expire(sim::Time now, sim::Time idle) {
    for (auto it = table_.begin(); it != table_.end();) {
      it = (now - it.value().last_seen > idle) ? table_.erase(it) : ++it;
    }
  }

 private:
  struct TupleHasher {
    std::uint64_t operator()(const net::FiveTuple& t) const noexcept {
      return net::tuple_prehash(t);
    }
  };
  util::FlatMap<net::FiveTuple, Entry, TupleHasher> table_;
  sim::Time gap_;
  std::uint64_t flowlets_started_{0};
};

}  // namespace clove::overlay
