#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "telemetry/dre.hpp"
#include "util/ring_deque.hpp"

namespace clove::net {

class Node;
class ShardChannel;

using LinkId = std::uint32_t;

/// Configuration of one unidirectional link (and its egress queue).
struct LinkConfig {
  double rate_bytes_per_sec{sim::gbps_to_bytes_per_sec(10.0)};
  sim::Time propagation{5 * sim::kMicrosecond};
  std::int64_t queue_capacity_bytes{128 * 1578};  ///< drop-tail limit
  std::int64_t ecn_threshold_bytes{20 * 1578};    ///< mark-on-enqueue (K)
  bool ecn_marking{true};       ///< whether this egress marks ECT packets
  bool int_telemetry{false};    ///< push utilization onto packets' INT stacks
  bool conga_metric{false};     ///< fold utilization into CONGA ce fields
  double dre_alpha{0.1};
  sim::Time dre_interval{50 * sim::kMicrosecond};
};

/// Per-link counters, exposed for tests and experiment reports.
struct LinkStats {
  std::uint64_t tx_packets{0};
  std::uint64_t tx_bytes{0};
  std::uint64_t drops_overflow{0};
  std::uint64_t drops_down{0};
  std::uint64_t drops_fault{0};  ///< injected probabilistic silent drops
  std::uint64_t ecn_marks{0};
  std::int64_t max_queue_bytes{0};
};

/// Observer for link state changes that alter effective capacity (down/up,
/// capacity-factor faults). The hybrid flow/packet engine registers one per
/// link it carries fluid load on, so promoted elephants can be demoted back
/// to packet level the moment a path-health event touches their path.
class FluidObserver {
 public:
  virtual ~FluidObserver() = default;
  virtual void on_link_changed(class Link& link) = 0;
};

/// A unidirectional point-to-point link with a drop-tail, ECN-marking egress
/// queue, a transmitter that serializes one packet at a time, and a fixed
/// propagation pipe. Utilization is tracked with a DRE for INT/CONGA.
class Link {
 public:
  Link(sim::Simulator& sim, LinkId id, std::string name, Node* dst,
       int dst_in_port, const LinkConfig& cfg);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Offer a packet to the egress queue; may drop (overflow / link down).
  void enqueue(PacketPtr pkt);

  /// Take the link down: queued and in-flight packets are lost, and no new
  /// traffic is accepted until up() is called.
  void down();
  void up();
  [[nodiscard]] bool is_down() const { return down_; }

  [[nodiscard]] LinkId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Node* dst() const { return dst_; }
  [[nodiscard]] const LinkConfig& config() const { return cfg_; }
  [[nodiscard]] const LinkStats& stats() const { return stats_; }
  [[nodiscard]] std::int64_t queue_bytes() const { return queue_bytes_; }

  /// Utilization as congestion-aware schemes observe it: the DRE's measured
  /// packet utilization plus the analytic share of any fluid (flow-level)
  /// load the hybrid engine has placed on this link. With no fluid load this
  /// is exactly the DRE value — bit-identical to the pre-hybrid behavior.
  [[nodiscard]] double utilization() const {
    double u = dre_.utilization(sim_.now());
    if (fluid_rate_ > 0.0) {
      u += fluid_rate_ / (cfg_.rate_bytes_per_sec * capacity_factor_);
      if (u > 1.0) u = 1.0;
    }
    return u;
  }
  [[nodiscard]] std::uint8_t utilization_quantized(int bits = 3) const {
    if (fluid_rate_ > 0.0) {
      double u = utilization();
      auto max_q = static_cast<std::uint8_t>((1u << bits) - 1u);
      auto q = static_cast<std::uint8_t>(u * max_q + 0.5);
      return q > max_q ? max_q : q;
    }
    return dre_.quantized(sim_.now(), bits);
  }

  /// The DRE's packet-only utilization, excluding fluid load. The hybrid
  /// rate solver uses this to size the residual capacity left for fluid
  /// flows without double-counting its own contribution.
  [[nodiscard]] double packet_utilization() const {
    return dre_.utilization(sim_.now());
  }

  /// Whether enqueueing `p` right now would ECN-mark it (the exact marking
  /// condition enqueue() applies). Used by the flight recorder's hop records
  /// at the switch, where the egress decision is made.
  [[nodiscard]] bool would_mark(const Packet& p) const {
    if (!cfg_.ecn_marking ||
        queue_bytes_ + fluid_queue_bytes_ < cfg_.ecn_threshold_bytes) {
      return false;
    }
    return p.encap.present ? p.encap.ecn.ect : (!p.encap.present && p.tcp.ect);
  }

  /// Enable/disable ECN marking post-construction (the topology builder
  /// turns marking off on host NIC egress queues: those are hypervisor TX
  /// queues, not switch ports, and real deployments do not mark them).
  void set_ecn_marking(bool on) { cfg_.ecn_marking = on; }

  /// Idealized time to serialize `bytes` on this link at its current
  /// (possibly degraded) effective rate (used by tests).
  [[nodiscard]] sim::Time serialization_delay(std::int64_t bytes) const {
    return sim::transmission_delay(bytes,
                                   cfg_.rate_bytes_per_sec * capacity_factor_);
  }

  // --- fault-injection hooks (clove::fault) -------------------------------

  /// Scale the effective transmit rate to `factor` x nominal (partial
  /// capacity degradation — a flapping optic, a mis-negotiated lane). The
  /// DRE is re-based on the degraded rate so utilization-derived signals
  /// (INT, CONGA) see the link as it really is. Restores cleanly at 1.0.
  void set_capacity_factor(double factor);
  [[nodiscard]] double capacity_factor() const { return capacity_factor_; }

  /// Drop each offered packet with probability `p` — silently: no ECN mark,
  /// no down-event, exactly the gray failure routing cannot see. `seed`
  /// makes the drop sequence reproducible per link. p = 0 disables.
  void set_fault_drop(double p, std::uint64_t seed);
  [[nodiscard]] double fault_drop_prob() const { return fault_drop_prob_; }

  // --- hybrid flow/packet engine (clove::hybrid) ---------------------------

  /// Place `rate_bytes_per_sec` of fluid (flow-level) load on this link,
  /// with `vqueue_bytes` of virtual standing queue (nonzero when the fluid
  /// load saturates the link, so real packets sharing it keep seeing ECN
  /// marks). Fluid load slows packet serialization proportionally and is
  /// folded into utilization()/INT/CONGA signals. Zero/zero restores the
  /// exact pre-hybrid datapath.
  void set_fluid(double rate_bytes_per_sec, std::int64_t vqueue_bytes) {
    if (fluid_rate_ == rate_bytes_per_sec &&
        fluid_queue_bytes_ == vqueue_bytes) {
      return;
    }
    fluid_rate_ = rate_bytes_per_sec;
    fluid_queue_bytes_ = vqueue_bytes;
    memo_bytes_ = -1;  // serialization delay depends on the residual rate
  }
  [[nodiscard]] double fluid_rate() const { return fluid_rate_; }
  [[nodiscard]] std::int64_t fluid_queue_bytes() const {
    return fluid_queue_bytes_;
  }

  /// Register an observer notified on capacity-changing events (down, up,
  /// capacity-factor changes). Null clears it.
  void set_fluid_observer(FluidObserver* obs) { fluid_observer_ = obs; }

  // --- sharded simulation (net::ShardDomain) -------------------------------

  /// Mark this link as shard-crossing: finished transmissions are staged
  /// into `ch` instead of the local propagation pipe, and delivered on the
  /// destination shard at the next barrier (see shard.hpp). Null restores
  /// the intra-shard path. Set once at topology build time.
  void set_channel(ShardChannel* ch) { channel_ = ch; }
  [[nodiscard]] ShardChannel* channel() const { return channel_; }

  /// The simulator this link's source-side events run on (the fault layer
  /// uses it to find the owning shard).
  [[nodiscard]] sim::Simulator& simulator() const { return sim_; }

  /// Deliver a packet that crossed the shard boundary. Runs on the
  /// DESTINATION shard's thread at simulated time `now` — this link's own
  /// `sim_` belongs to the source shard and its clock is stale here, so the
  /// arrival time is passed in. Mirrors deliver_front()'s per-packet body:
  /// a link that went down while the packet was in the pipe drops it.
  void remote_deliver(PacketPtr pkt, sim::Time now);

 private:
  void start_tx();
  void on_tx_done();
  void deliver_front();

  sim::Simulator& sim_;
  LinkId id_;
  std::string name_;
  Node* dst_;
  int dst_in_port_;
  LinkConfig cfg_;

  // Ring-buffer FIFOs: a deque here would allocate/free a block every few
  // dozen packets as elements cycle through; the rings go quiet once the
  // queue-depth high-watermark is reached (see util::RingDeque).
  util::RingDeque<PacketPtr> queue_;
  std::int64_t queue_bytes_{0};
  bool busy_{false};
  PacketPtr in_flight_;            ///< packet currently being serialized
  std::int64_t memo_bytes_{-1};    ///< last serialized wire size …
  sim::Time memo_delay_{0};        ///< … and its cached serialization delay
  /// Packets in the propagation pipe, with their delivery deadlines.
  /// Deadlines are monotone (FIFO serialization + fixed propagation), so a
  /// single outstanding wake event per link suffices: deliver_front() drains
  /// every ripe packet and re-arms for the new front. This keeps the event
  /// heap at O(links) entries instead of O(packets in flight), which shrinks
  /// every heap sift in the simulation core.
  util::RingDeque<std::pair<sim::Time, PacketPtr>> propagating_;
  sim::EventId prop_wake_{};       ///< pending deliver_front wake, if any
  ShardChannel* channel_{nullptr};  ///< non-null iff this link crosses shards
  bool down_{false};
  double capacity_factor_{1.0};    ///< effective-rate scale (fault injection)
  double fault_drop_prob_{0.0};    ///< per-packet silent-drop probability
  sim::Rng fault_rng_{0};          ///< reseeded by set_fault_drop
  double fluid_rate_{0.0};         ///< flow-level load (hybrid engine)
  std::int64_t fluid_queue_bytes_{0};  ///< virtual queue from fluid load
  FluidObserver* fluid_observer_{nullptr};

  telemetry::Dre dre_;
  LinkStats stats_;
};

}  // namespace clove::net
