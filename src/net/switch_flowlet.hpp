#pragma once

#include <cstdint>

#include "sim/time.hpp"
#include "util/flat_map.hpp"

namespace clove::net {

/// In-switch flowlet table, as used by CONGA and LetFlow: maps a flow key to
/// the path decision of its current flowlet. A packet arriving more than
/// `gap` after the flow's previous packet starts a new flowlet.
///
/// Backed by util::FlatMap so the per-packet touch is one linear probe with
/// no heap allocation in steady state. Expiry is amortized: every touch also
/// sweeps a few slots of the table and drops entries idle longer than the
/// idle timeout, so the table stops growing without ever paying an O(table)
/// scan on the datapath. The timeout is >= the flowlet gap, which makes
/// expiry decision-neutral — an entry old enough to expire would have
/// started a new flowlet on its next touch anyway.
class SwitchFlowletTable {
 public:
  /// Slots examined per touch by the incremental expiry sweep.
  static constexpr std::size_t kSweepSlots = 8;

  explicit SwitchFlowletTable(sim::Time gap = 200 * sim::kMicrosecond)
      : gap_(gap) {}

  struct Entry {
    sim::Time last_seen{0};
    std::uint32_t value{0};
  };

  struct Decision {
    bool new_flowlet;
    std::uint32_t value;  ///< the stored path choice (tag / port)
    Entry* entry;         ///< handle valid until the next touch()
    /// Store the decision for this flowlet without a second lookup.
    void set_value(std::uint32_t v) const { entry->value = v; }
  };

  /// Look up the flow; `value` is only meaningful when !new_flowlet.
  [[nodiscard]] Decision touch(std::uint64_t key, sim::Time now) {
    // Sweep before locating the entry: erase never relocates slots, so the
    // handle returned below stays valid, but sweeping first keeps even the
    // ordering trivially safe.
    const sim::Time idle = idle_timeout();
    table_.sweep(kSweepSlots, [&](std::uint64_t, const Entry& e) {
      return now - e.last_seen > idle;
    });
    auto [e, inserted] = table_.try_emplace(key);
    if (inserted) {
      e->last_seen = now;
      return {true, 0, e};
    }
    const bool fresh = now - e->last_seen <= gap_;
    e->last_seen = now;
    return {!fresh, e->value, e};
  }

  /// Keyed store (second lookup); prefer Decision::set_value on the handle.
  void set_value(std::uint64_t key, std::uint32_t value) {
    table_[key].value = value;
  }

  void set_gap(sim::Time gap) { gap_ = gap; }
  [[nodiscard]] sim::Time gap() const { return gap_; }
  [[nodiscard]] std::size_t size() const { return table_.size(); }

  /// Idle age beyond which the incremental sweep drops an entry. Always at
  /// least the flowlet gap (see class comment); scaled well above it so
  /// normal inter-flowlet silence does not thrash the table.
  [[nodiscard]] sim::Time idle_timeout() const { return 100 * gap_; }

  /// Drop entries idle for more than `idle` (full scan; kept for tests and
  /// explicit housekeeping — the datapath relies on the touch-time sweep).
  void expire(sim::Time now, sim::Time idle) {
    for (auto it = table_.begin(); it != table_.end();) {
      it = (now - it.value().last_seen > idle) ? table_.erase(it) : ++it;
    }
  }

 private:
  util::FlatMap<std::uint64_t, Entry> table_;
  sim::Time gap_;
};

}  // namespace clove::net
