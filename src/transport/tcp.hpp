#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace clove::telemetry {
class Histogram;
}  // namespace clove::telemetry

namespace clove::transport {

/// Guest-VM TCP tuning knobs. Defaults model an untuned Linux stack of the
/// paper's era (the whole point of Clove is that this stack is NOT modified).
/// Loss recovery is not a knob: like that stack, the sender always runs
/// SACK recovery (RFC 6675 scoreboard and pipe) with limited transmit
/// (RFC 3042) and a duplicate-ACK threshold of 3.
struct TcpConfig {
  std::uint32_t mss{1460};
  std::uint32_t initial_cwnd_pkts{10};
  std::uint32_t max_cwnd_bytes{4u << 20};
  sim::Time min_rto{200 * sim::kMillisecond};  ///< Linux default
  sim::Time initial_rtt{1 * sim::kMillisecond};
  bool ecn{false};      ///< RFC3168 inner ECN (off for a vanilla tenant)
  bool dctcp{false};    ///< DCTCP extension (§7); implies ecn semantics
  double dctcp_g{1.0 / 16.0};
  int ack_every{2};     ///< delayed-ACK ratio
  sim::Time delack_timeout{200 * sim::kMicrosecond};
  bool tail_loss_probe{true};   ///< Linux-style TLP: probe before the RTO
  sim::Time min_tlp{1 * sim::kMillisecond};
};

struct TcpSenderStats {
  std::uint64_t bytes_sent{0};
  std::uint64_t bytes_acked{0};
  std::uint64_t packets_sent{0};
  std::uint64_t fast_retransmits{0};
  std::uint64_t timeouts{0};
  std::uint64_t ecn_reductions{0};
  /// Head retransmits triggered by a path eviction (on_path_evicted) rather
  /// than by dupacks or the RTO — the edge-recovery fast path.
  std::uint64_t evict_repins{0};

  /// Field-wise sum (aggregating senders).
  TcpSenderStats& operator+=(const TcpSenderStats& o) {
    bytes_sent += o.bytes_sent;
    bytes_acked += o.bytes_acked;
    packets_sent += o.packets_sent;
    fast_retransmits += o.fast_retransmits;
    timeouts += o.timeouts;
    ecn_reductions += o.ecn_reductions;
    evict_repins += o.evict_repins;
    return *this;
  }
};

/// The hypervisor-facing side of a VM vNIC: VM stacks hand packets to it,
/// and the owning host delivers inbound packets back via TcpEndpoint.
class VmPort {
 public:
  virtual ~VmPort() = default;
  virtual void vm_send(net::PacketPtr pkt) = 0;
  virtual sim::Simulator& simulator() = 0;
};

class TcpSender;

/// Observer installed on a TcpSender by the hybrid flow/packet engine
/// (clove::hybrid). The sender reports ack-clock events the engine's
/// promotion predicate and demotion triggers feed on; null hooks cost one
/// branch on the ack path and nothing else.
class SenderHook {
 public:
  virtual ~SenderHook() = default;
  /// A cumulative ACK advanced snd_una with a clean scoreboard (no SACK
  /// blocks, no dupacks, not in recovery): `acked` new bytes confirmed.
  virtual void on_clean_ack(TcpSender& s, std::uint64_t acked) = 0;
  /// Any loss/congestion signal: dupack-triggered recovery, RTO, ECN
  /// reduction, or an eviction-triggered head retransmit.
  virtual void on_loss_event(TcpSender& s) = 0;
  /// The sender is being destroyed; drop all references.
  virtual void on_sender_gone(TcpSender& s) = 0;
};

/// Anything that consumes inbound inner packets (sender or receiver half).
class TcpEndpoint {
 public:
  virtual ~TcpEndpoint() = default;
  virtual void on_packet(net::PacketPtr pkt) = 0;
  /// Downcast hook for the hybrid engine: non-null iff this endpoint is a
  /// plain TcpSender (MPTCP subflow senders are registered via their own
  /// endpoints and still return themselves; the engine filters those by
  /// their coupled-increase hooks instead).
  virtual TcpSender* as_sender() { return nullptr; }
  /// Hybrid fast-forward: the fluid model delivered the stream up to byte
  /// `pos`. Receivers advance their cumulative state; other endpoints
  /// ignore it.
  virtual void hybrid_sync(std::uint64_t pos) { (void)pos; }
  /// The hypervisor's path-health monitor evicted an uplink port toward
  /// `dst_ip`. The guest stack cannot see overlay paths, so the default is a
  /// no-op; senders that keep data in flight may use it to cut short a stall
  /// on the dead path (the edge re-pins the retransmission elsewhere).
  virtual void on_path_evicted(net::IpAddr dst_ip, std::uint16_t port,
                               sim::Time now) {
    (void)dst_ip;
    (void)port;
    (void)now;
  }
};

/// One-directional TCP byte-stream sender: Reno congestion control with
/// SACK-based fast retransmit/recovery, tail-loss probes, RTO with
/// exponential backoff, optional RFC3168 ECN reaction and optional DCTCP
/// fractional reaction. Sequence numbers are 64-bit byte offsets (no wrap
/// handling needed).
///
/// Jobs are framed as byte ranges on the persistent stream: write() appends
/// and registers a completion callback fired when the range is fully acked —
/// matching the paper's workload of many jobs per persistent connection.
class TcpSender : public TcpEndpoint {
 public:
  using Completion = std::function<void(sim::Time acked_at)>;

  /// `rtt_us`, when set, receives every RTT sample (in µs) while telemetry
  /// is enabled; the owner shares one histogram across its senders.
  TcpSender(VmPort& port, net::FiveTuple tuple, TcpConfig cfg = {},
            telemetry::Histogram* rtt_us = nullptr);
  ~TcpSender() override;

  /// Append `bytes` to the stream; `done` fires when the last byte is acked.
  void write(std::uint64_t bytes, Completion done = nullptr);

  void on_packet(net::PacketPtr pkt) override;

  /// Path eviction toward our destination: if data is outstanding and the
  /// flow has not made progress for ~1 RTT (it was riding the dead path),
  /// immediately retransmit the head segment instead of waiting out the RTO.
  /// The edge's policy has already dropped the evicted port, so the
  /// retransmission hashes onto a live path.
  void on_path_evicted(net::IpAddr dst_ip, std::uint16_t port,
                       sim::Time now) override;

  [[nodiscard]] const net::FiveTuple& tuple() const { return tuple_; }
  [[nodiscard]] const TcpSenderStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t cwnd() const { return cwnd_; }
  [[nodiscard]] std::uint64_t bytes_outstanding() const { return snd_nxt_ - snd_una_; }
  [[nodiscard]] std::uint64_t stream_end() const { return stream_end_; }
  [[nodiscard]] std::uint64_t snd_una() const { return snd_una_; }
  [[nodiscard]] sim::Time srtt() const { return srtt_; }
  [[nodiscard]] bool idle() const { return snd_una_ == stream_end_; }

  /// Coupled-increase hook for MPTCP (returns bytes to add to cwnd per
  /// `acked` bytes in congestion avoidance). Default: Reno (mss*acked/cwnd).
  std::function<std::uint64_t(std::uint64_t acked)> ca_increase;

  /// Fires whenever snd_una advances (used by MPTCP's scheduler).
  std::function<void()> on_progress;

  // --- hybrid flow/packet engine (clove::hybrid) ---------------------------

  [[nodiscard]] TcpSender* as_sender() override { return this; }

  /// Install/clear the promotion-engine hook (null detaches).
  void hybrid_set_hook(SenderHook* hook) { hook_ = hook; }

  /// Whether this sender is currently promoted to the fluid model.
  [[nodiscard]] bool hybrid_promoted() const { return hybrid_promoted_; }

  /// Flag the next outgoing data segment to capture its link-level path
  /// (Packet::htrace) so the engine learns which links the current flowlet
  /// rides before promoting.
  void hybrid_request_trace() { trace_next_ = true; }

  /// Promote: freeze the packet-level machinery. Everything at or below
  /// snd_nxt is treated as delivered (the engine syncs the receiver to the
  /// same point); timers stop, the scoreboard clears, and inbound ACKs for
  /// the pre-promotion packets still in flight are discarded.
  void hybrid_suspend();

  /// Fluid delivery advanced the stream to byte `pos` at time `now`: fire
  /// the completions it crossed. Only valid while promoted.
  void hybrid_advance(std::uint64_t pos, sim::Time now);

  /// Demote: resume packet-level sending at the fluid model's final rate
  /// (`rate_bytes_per_sec`), translated into cwnd = rate x srtt. The next
  /// segments re-enter the network as real packets — a fresh flowlet.
  void hybrid_resume(double rate_bytes_per_sec, sim::Time now);

  /// First pending job-completion boundary above snd_una (0 when none) —
  /// the engine schedules exact fluid-advance wakes at these points.
  [[nodiscard]] std::uint64_t next_completion_boundary() const {
    return completions_.empty() ? 0 : completions_.front().first;
  }

 private:
  void try_send();
  void send_segment(std::uint64_t seq, std::uint32_t len, bool retransmit);
  void on_ack(const net::TcpHeader& hdr);
  void handle_dupack();
  // --- SACK scoreboard ---
  void merge_sack_blocks(const net::TcpHeader& hdr);
  [[nodiscard]] std::uint64_t sacked_bytes() const;
  void sack_pump();
  void enter_recovery();
  void on_rto();
  void on_tlp();
  void arm_rto();
  void restart_timers();
  void rtt_sample(sim::Time sample);
  [[nodiscard]] sim::Time rto() const;
  void ecn_reduce();

  VmPort& port_;
  net::FiveTuple tuple_;
  TcpConfig cfg_;
  sim::Timer rto_timer_;
  sim::Timer tlp_timer_;

  // Stream state.
  std::uint64_t stream_end_{0};  ///< bytes written by the application
  std::uint64_t snd_una_{0};
  std::uint64_t snd_nxt_{0};
  std::deque<std::pair<std::uint64_t, Completion>> completions_;

  // Congestion control.
  std::uint64_t cwnd_;
  std::uint64_t ssthresh_;
  int dupacks_{0};
  bool in_recovery_{false};
  std::uint64_t recover_point_{0};
  int rto_backoff_{0};

  // SACK scoreboard: disjoint sacked ranges [start, end) above snd_una_,
  // plus hole starts retransmitted in the current recovery with their send
  // times — a retransmission older than ~1.5 RTT is presumed lost again
  // (RACK-style), so it re-enters the pipe and may be resent.
  std::map<std::uint64_t, std::uint64_t> sacked_;
  std::map<std::uint64_t, sim::Time> hole_retx_;
  [[nodiscard]] sim::Time retx_lost_after() const;
  /// sack_pump's scratch: the (seq, len) holes it may retransmit, in order.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> holes_;

  // ECN / DCTCP.
  bool cwr_pending_{false};       ///< set CWR on next data segment
  std::uint64_t ecn_reduce_until_{0};  ///< one reduction per window
  double dctcp_alpha_{1.0};
  std::uint64_t dctcp_window_start_{0};
  std::uint64_t dctcp_acked_{0};
  std::uint64_t dctcp_marked_{0};

  // RTT estimation (Karn + Jacobson).
  struct SendSample {
    std::uint64_t seq_end;
    sim::Time sent;
    bool retransmitted;
  };
  std::deque<SendSample> samples_;
  sim::Time srtt_{0};
  sim::Time rttvar_{0};
  /// Last time the flow made forward progress (cumulative ACK advanced, or a
  /// send started from idle). Gates the eviction-triggered retransmit so a
  /// healthy flow is not repinned spuriously.
  sim::Time last_progress_{0};

  // Hybrid flow/packet engine state.
  SenderHook* hook_{nullptr};
  bool hybrid_promoted_{false};
  bool trace_next_{false};

  TcpSenderStats stats_;

  // The RTT distribution is the one transport metric no stats field keeps,
  // so it is pushed into the owner's histogram (null: not recorded).
  // Per-flow attribution comes from trace events instead.
  telemetry::Histogram* rtt_us_;
};

/// One-directional TCP receiver: cumulative ACKs, out-of-order reassembly,
/// delayed ACKs (immediate on reordering or ECN transitions), RFC3168 or
/// DCTCP-style ECN echo.
class TcpReceiver : public TcpEndpoint {
 public:
  TcpReceiver(VmPort& port, net::FiveTuple reverse_tuple, TcpConfig cfg = {});

  void on_packet(net::PacketPtr pkt) override;

  [[nodiscard]] std::uint64_t bytes_delivered() const { return rcv_nxt_; }
  /// Fires on every in-order delivery with the new cumulative byte count.
  std::function<void(std::uint64_t total_bytes)> on_deliver;

  [[nodiscard]] std::uint64_t reorder_events() const { return reorder_events_; }

  /// Hybrid fast-forward: the fluid model delivered everything up to `pos`.
  /// Jump the cumulative point, prune the reassembly map, and fire
  /// on_deliver — pre-promotion packets still in flight arrive as stale
  /// duplicates afterwards and are acked (harmlessly) below rcv_nxt.
  void hybrid_sync(std::uint64_t pos) override;

 private:
  void send_ack(bool force);
  void do_send_ack();

  VmPort& port_;
  net::FiveTuple reverse_tuple_;  ///< tuple used for outgoing ACKs
  TcpConfig cfg_;
  sim::Timer delack_timer_;

  std::uint64_t rcv_nxt_{0};
  std::map<std::uint64_t, std::uint64_t> ooo_;  ///< seq -> end (disjoint)
  net::SackBlock last_block_{};  ///< most recently stored OOO block
  int unacked_segments_{0};
  std::uint64_t reorder_events_{0};

  // ECN state.
  bool ece_latched_{false};   ///< RFC3168: echo until CWR
  bool last_pkt_ce_{false};   ///< DCTCP: echo per-packet CE
};

}  // namespace clove::transport
