#include "transport/tcp.hpp"

#include <algorithm>

#include "prof/prof.hpp"
#include "sim/logging.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/metrics.hpp"

namespace clove::transport {

namespace {
constexpr sim::Time kMaxRto = 60 * sim::kSecond;
/// Duplicate ACKs (or sacked segments) that declare the head lost.
constexpr int kDupThresh = 3;
}

// ---------------------------------------------------------------------------
// TcpSender
// ---------------------------------------------------------------------------

TcpSender::TcpSender(VmPort& port, net::FiveTuple tuple, TcpConfig cfg,
                     telemetry::Histogram* rtt_us)
    : port_(port),
      tuple_(tuple),
      cfg_(cfg),
      rto_timer_(port.simulator(), [this] { on_rto(); }),
      tlp_timer_(port.simulator(), [this] { on_tlp(); }),
      cwnd_(static_cast<std::uint64_t>(cfg.initial_cwnd_pkts) * cfg.mss),
      ssthresh_(cfg.max_cwnd_bytes),
      rtt_us_(rtt_us) {
  if (cfg_.dctcp) cfg_.ecn = true;
}

TcpSender::~TcpSender() {
  if (hook_ != nullptr) hook_->on_sender_gone(*this);
}

void TcpSender::write(std::uint64_t bytes, Completion done) {
  stream_end_ += bytes;
  if (done) completions_.emplace_back(stream_end_, std::move(done));
  try_send();
}

sim::Time TcpSender::rto() const {
  sim::Time base = (srtt_ == 0) ? 2 * cfg_.initial_rtt
                                : srtt_ + std::max<sim::Time>(4 * rttvar_,
                                                              sim::kMicrosecond);
  base = std::max(base, cfg_.min_rto);
  for (int i = 0; i < rto_backoff_; ++i) {
    base = std::min(base * 2, kMaxRto);
  }
  return base;
}

void TcpSender::arm_rto() {
  // Ensure-semantics: schedule the timers only when they are not already
  // pending, so repeated transmissions cannot push the RTO into the future
  // forever. on_ack() restarts them explicitly on cumulative progress.
  if (snd_una_ < snd_nxt_) {
    if (!rto_timer_.pending()) rto_timer_.schedule_in(rto());
    if (cfg_.tail_loss_probe && !tlp_timer_.pending()) {
      // Probe well before the (potentially huge) RTO would fire; the probe
      // re-arms itself, so a persistent stall keeps probing at PTO spacing
      // instead of waiting the full RTO.
      const sim::Time pto =
          std::max(cfg_.min_tlp, srtt_ > 0 ? 2 * srtt_ : 2 * cfg_.initial_rtt);
      if (pto < rto()) tlp_timer_.schedule_in(pto);
    }
  } else {
    rto_timer_.cancel();
    tlp_timer_.cancel();
  }
}

void TcpSender::restart_timers() {
  rto_timer_.cancel();
  tlp_timer_.cancel();
  arm_rto();
}

void TcpSender::on_tlp() {
  // Tail-loss probe: no ACK progress for ~2 RTTs with data outstanding.
  // Retransmit the LAST outstanding segment: a lost tail is repaired
  // directly, and otherwise the duplicate's SACK elicits the dupacks that let
  // fast retransmit run instead of a full RTO. Inside recovery, re-pump first
  // (hole retransmissions older than the probe timeout are presumed lost
  // again), then still probe the tail: when a whole burst above the highest
  // SACK was dropped, the pipe model cannot see it, and only the tail
  // probe's SACK can reveal the receiver's true state.
  if (snd_una_ >= snd_nxt_) return;
  if (in_recovery_) sack_pump();
  const std::uint64_t len =
      std::min<std::uint64_t>(cfg_.mss, snd_nxt_ - snd_una_);
  send_segment(snd_nxt_ - len, static_cast<std::uint32_t>(len),
               /*retransmit=*/true);
  arm_rto();  // keep probing at PTO intervals while the stall lasts
}

void TcpSender::rtt_sample(sim::Time m) {
  if (rtt_us_ != nullptr && telemetry::enabled()) {
    rtt_us_->observe(static_cast<double>(m) / sim::kMicrosecond);
  }
  if (srtt_ == 0) {
    srtt_ = m;
    rttvar_ = m / 2;
  } else {
    const sim::Time err = srtt_ > m ? srtt_ - m : m - srtt_;
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + m) / 8;
  }
}

void TcpSender::try_send() {
  // Promoted to the fluid model: the engine advances the stream; no packets
  // leave until hybrid_resume().
  if (hybrid_promoted_) return;
  // RFC 3042 limited transmit: the first dupacks each release one new
  // segment so that small windows can still reach the fast-retransmit
  // threshold instead of stalling into an RTO.
  std::uint64_t cwnd = cwnd_;
  if (!in_recovery_ && dupacks_ > 0) {
    cwnd += static_cast<std::uint64_t>(std::min(dupacks_, kDupThresh - 1)) *
            cfg_.mss;
  }
  if (snd_nxt_ == snd_una_ && snd_nxt_ < stream_end_) {
    last_progress_ = port_.simulator().now();  // starting from idle
  }
  while (snd_nxt_ < stream_end_ && snd_nxt_ - snd_una_ < cwnd) {
    const std::uint32_t len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(cfg_.mss, stream_end_ - snd_nxt_));
    // Avoid a sliver segment when the window has less than one byte... the
    // window check above already guarantees at least one byte of room.
    send_segment(snd_nxt_, len, /*retransmit=*/false);
    snd_nxt_ += len;
  }
  arm_rto();
}

void TcpSender::send_segment(std::uint64_t seq, std::uint32_t len,
                             bool retransmit) {
  auto pkt = net::make_packet(port_.simulator());
  pkt->inner = tuple_;
  pkt->tcp.seq = seq;
  pkt->tcp.ack = 0;
  pkt->tcp.flags.ack = false;
  pkt->payload = len;
  pkt->ttl = 64;
  pkt->sent_at = port_.simulator().now();
  if (trace_next_ && !retransmit && len > 0) {
    pkt->htrace.active = true;
    trace_next_ = false;
  }
  if (cfg_.ecn) {
    pkt->tcp.ect = true;
    if (cwr_pending_) {
      pkt->tcp.flags.cwr = true;
      cwr_pending_ = false;
    }
  }
  samples_.push_back(SendSample{seq + len, port_.simulator().now(), retransmit});
  ++stats_.packets_sent;
  stats_.bytes_sent += len;
  port_.vm_send(std::move(pkt));
}

void TcpSender::on_packet(net::PacketPtr pkt) {
  CLOVE_PROF_SCOPE(prof::kTransport);
  // While promoted, stale ACKs for pre-promotion packets still in flight
  // trickle in below the (already advanced) snd_una; discard them all.
  if (hybrid_promoted_) return;
  if (!pkt->tcp.flags.ack) return;
  on_ack(pkt->tcp);
}

void TcpSender::on_path_evicted(net::IpAddr dst_ip, std::uint16_t port,
                                sim::Time now) {
  (void)port;  // the policy already dropped it; the re-hash picks a live one
  if (dst_ip != tuple_.dst_ip) return;
  if (hybrid_promoted_) {
    // The fluid flow may be riding the evicted path; the engine demotes it
    // so the next (real) packets re-run the path decision.
    if (hook_ != nullptr) hook_->on_loss_event(*this);
    return;
  }
  if (snd_una_ >= snd_nxt_) return;  // nothing in flight to rescue
  // Only act on a flow that is actually stalled: the eviction took ~several
  // probe intervals to fire, so a flow still advancing was not on that path.
  const sim::Time stall = srtt_ > 0 ? srtt_ : cfg_.initial_rtt;
  if (now - last_progress_ < stall) return;
  ++stats_.evict_repins;
  const std::uint64_t len =
      std::min<std::uint64_t>(cfg_.mss, snd_nxt_ - snd_una_);
  send_segment(snd_una_, static_cast<std::uint32_t>(len), /*retransmit=*/true);
  last_progress_ = now;  // one repin per eviction burst, not per dead port
  restart_timers();
}

// ---------------------------------------------------------------------------
// SACK scoreboard (RFC 6675-lite)
// ---------------------------------------------------------------------------

void TcpSender::merge_sack_blocks(const net::TcpHeader& hdr) {
  for (int i = 0; i < hdr.sack_count; ++i) {
    std::uint64_t s = std::max(hdr.sacks[static_cast<std::size_t>(i)].start,
                               snd_una_);
    std::uint64_t e = std::min(hdr.sacks[static_cast<std::size_t>(i)].end,
                               snd_nxt_);
    if (e <= s) continue;
    // Interval-merge [s, e) into the disjoint map.
    auto it = sacked_.lower_bound(s);
    if (it != sacked_.begin() && std::prev(it)->second >= s) --it;
    while (it != sacked_.end() && it->first <= e) {
      s = std::min(s, it->first);
      e = std::max(e, it->second);
      it = sacked_.erase(it);
    }
    sacked_[s] = e;
  }
  // A retransmitted hole that is now sacked is no longer in flight.
  for (auto it = hole_retx_.begin(); it != hole_retx_.end();) {
    auto rit = sacked_.upper_bound(it->first);
    const bool covered =
        rit != sacked_.begin() && std::prev(rit)->second > it->first;
    it = covered ? hole_retx_.erase(it) : ++it;
  }
}

sim::Time TcpSender::retx_lost_after() const {
  const sim::Time rtt = srtt_ > 0 ? srtt_ : cfg_.initial_rtt;
  return rtt + rtt / 2;
}

std::uint64_t TcpSender::sacked_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [s, e] : sacked_) {
    if (e <= snd_una_) continue;
    total += e - std::max(s, snd_una_);
  }
  return total;
}

void TcpSender::enter_recovery() {
  if (hook_ != nullptr) hook_->on_loss_event(*this);
  ++stats_.fast_retransmits;
  if (telemetry::tracing()) {
    telemetry::trace(telemetry::Category::kTcp, port_.simulator().now(),
                     tuple_.to_string(), "tcp.fast_retransmit", "sack",
                     static_cast<double>(cwnd_), snd_una_);
  }
  in_recovery_ = true;
  recover_point_ = snd_nxt_;
  const std::uint64_t inflight = snd_nxt_ - snd_una_;
  ssthresh_ = std::max<std::uint64_t>(inflight / 2, 2ull * cfg_.mss);
  cwnd_ = ssthresh_;
  hole_retx_.clear();
}

void TcpSender::sack_pump() {
  // RFC 6675-style pipe: bytes believed in flight = outstanding, minus
  // sacked bytes, minus holes below the highest sack (presumed LOST — this
  // is what lets recovery proceed), plus recent hole retransmissions. One
  // walk over the scoreboard splits every hole into mss-sized slots that are
  // either lost (retransmittable, in order) or recently retransmitted; the
  // loop below then moves each slot it resends from lost to retransmitted.
  // A recently retransmitted slot is counted twice (outstanding and not
  // lost, plus retx_inflight) — see DESIGN.md §5.
  const sim::Time now = port_.simulator().now();
  const sim::Time lost_after = retx_lost_after();
  std::uint64_t outstanding = snd_nxt_ - snd_una_;
  std::uint64_t sacked = 0;
  std::uint64_t lost = 0;
  std::uint64_t retx_inflight = 0;
  holes_.clear();
  std::uint64_t pos = snd_una_;
  for (const auto& [s, e] : sacked_) {
    if (e <= pos) continue;
    sacked += e - std::max(s, pos);
    for (std::uint64_t h = pos; h < s; h += cfg_.mss) {
      // h < s <= snd_nxt_ <= stream_end_, so the slot is all sendable.
      const auto len =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(cfg_.mss, s - h));
      auto rit = hole_retx_.find(h);
      if (rit != hole_retx_.end() && now - rit->second < lost_after) {
        retx_inflight += len;
      } else {
        lost += len;
        holes_.emplace_back(h, len);
      }
    }
    pos = e;
  }
  std::size_t next = 0;
  while (true) {
    const std::uint64_t pipe =
        (outstanding > sacked + lost ? outstanding - sacked - lost : 0) +
        retx_inflight;
    if (pipe >= cwnd_) break;
    if (in_recovery_ && next < holes_.size()) {
      const auto [hseq, hlen] = holes_[next++];
      send_segment(hseq, hlen, /*retransmit=*/true);
      hole_retx_[hseq] = now;
      lost -= hlen;
      retx_inflight += hlen;
      continue;
    }
    if (snd_nxt_ < stream_end_) {
      const std::uint32_t len = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(cfg_.mss, stream_end_ - snd_nxt_));
      send_segment(snd_nxt_, len, /*retransmit=*/false);
      snd_nxt_ += len;
      outstanding += len;
      continue;
    }
    break;
  }
  arm_rto();
}

void TcpSender::ecn_reduce() {
  // RFC3168 / DCTCP: at most one multiplicative reduction per window.
  if (snd_una_ < ecn_reduce_until_) return;
  if (hook_ != nullptr) hook_->on_loss_event(*this);
  ecn_reduce_until_ = snd_nxt_;
  ++stats_.ecn_reductions;
  cwr_pending_ = true;
  std::uint64_t new_cwnd;
  if (cfg_.dctcp) {
    new_cwnd = static_cast<std::uint64_t>(
        static_cast<double>(cwnd_) * (1.0 - dctcp_alpha_ / 2.0));
  } else {
    new_cwnd = cwnd_ / 2;
  }
  cwnd_ = std::max<std::uint64_t>(new_cwnd, 2ull * cfg_.mss);
  ssthresh_ = cwnd_;
}

void TcpSender::on_ack(const net::TcpHeader& hdr) {
  std::uint64_t ack = hdr.ack;
  const bool ece = hdr.flags.ece;
  if (ack > snd_nxt_) ack = snd_nxt_;  // corrupted/foreign; clamp

  // DCTCP marked-byte accounting (per-window alpha estimate).
  if (cfg_.dctcp && ack > snd_una_) {
    const std::uint64_t acked = ack - snd_una_;
    dctcp_acked_ += acked;
    if (ece) dctcp_marked_ += acked;
    if (ack >= dctcp_window_start_) {
      const double f = dctcp_acked_ > 0
                           ? static_cast<double>(dctcp_marked_) /
                                 static_cast<double>(dctcp_acked_)
                           : 0.0;
      dctcp_alpha_ = (1.0 - cfg_.dctcp_g) * dctcp_alpha_ + cfg_.dctcp_g * f;
      dctcp_acked_ = dctcp_marked_ = 0;
      dctcp_window_start_ = snd_nxt_;
    }
  }

  if (ece && cfg_.ecn) ecn_reduce();

  if (ack < snd_una_) return;  // stale
  merge_sack_blocks(hdr);
  if (ack == snd_una_) {
    if (snd_una_ < snd_nxt_) handle_dupack();
    return;
  }

  // New data acked.
  const std::uint64_t acked_bytes = ack - snd_una_;
  stats_.bytes_acked += acked_bytes;
  snd_una_ = ack;
  last_progress_ = port_.simulator().now();
  dupacks_ = 0;
  rto_backoff_ = 0;
  restart_timers();  // cumulative progress restarts the RTO/TLP clocks

  // Prune the scoreboard below the new cumulative ack.
  while (!sacked_.empty() && sacked_.begin()->second <= snd_una_) {
    sacked_.erase(sacked_.begin());
  }
  if (!sacked_.empty() && sacked_.begin()->first < snd_una_) {
    const std::uint64_t e = sacked_.begin()->second;
    sacked_.erase(sacked_.begin());
    sacked_[snd_una_] = e;
  }
  hole_retx_.erase(hole_retx_.begin(), hole_retx_.lower_bound(snd_una_));

  // RTT sample from the most recent fully-acked, never-retransmitted segment.
  sim::Time sample = -1;
  while (!samples_.empty() && samples_.front().seq_end <= ack) {
    if (!samples_.front().retransmitted) {
      sample = port_.simulator().now() - samples_.front().sent;
    }
    samples_.pop_front();
  }
  if (sample >= 0) rtt_sample(sample);

  if (in_recovery_) {
    if (ack >= recover_point_) {
      in_recovery_ = false;
      hole_retx_.clear();
      cwnd_ = std::max<std::uint64_t>(ssthresh_, 2ull * cfg_.mss);
    }
    // A partial ack leaves cwnd alone; the pump below retransmits exactly
    // the holes the scoreboard still shows.
  } else if (cwnd_ < ssthresh_) {
    cwnd_ += acked_bytes;  // slow start
  } else {
    cwnd_ += ca_increase ? ca_increase(acked_bytes)
                         : std::max<std::uint64_t>(
                               1, static_cast<std::uint64_t>(cfg_.mss) *
                                      acked_bytes / std::max<std::uint64_t>(
                                                        cwnd_, 1));
  }
  cwnd_ = std::min<std::uint64_t>(cwnd_, cfg_.max_cwnd_bytes);

  // Fire job completions.
  const sim::Time now = port_.simulator().now();
  while (!completions_.empty() && completions_.front().first <= snd_una_) {
    auto done = std::move(completions_.front().second);
    completions_.pop_front();
    done(now);
  }

  if (hook_ != nullptr && !in_recovery_ && dupacks_ == 0 && sacked_.empty()) {
    hook_->on_clean_ack(*this, acked_bytes);
  }

  sack_pump();
  if (on_progress) on_progress();
}

void TcpSender::handle_dupack() {
  ++dupacks_;
  if (!in_recovery_ && (dupacks_ >= kDupThresh ||
                        sacked_bytes() >= std::uint64_t{kDupThresh} * cfg_.mss)) {
    enter_recovery();
  }
  if (in_recovery_) {
    sack_pump();
  } else {
    try_send();  // limited transmit before the threshold
  }
}

void TcpSender::on_rto() {
  if (snd_una_ >= snd_nxt_) return;  // nothing outstanding
  if (hook_ != nullptr) hook_->on_loss_event(*this);
  ++stats_.timeouts;
  if (telemetry::tracing()) {
    telemetry::trace(telemetry::Category::kTcp, port_.simulator().now(),
                     tuple_.to_string(), "tcp.timeout",
                     "backoff " + std::to_string(rto_backoff_),
                     static_cast<double>(snd_nxt_ - snd_una_), snd_una_);
  }
  ++rto_backoff_;
  ssthresh_ = std::max<std::uint64_t>((snd_nxt_ - snd_una_) / 2, 2ull * cfg_.mss);
  cwnd_ = cfg_.mss;
  in_recovery_ = false;
  dupacks_ = 0;
  // Go-back-N: rewind and resend from the hole. The scoreboard is dropped
  // (sack reneging is legal), trading some redundant bytes for simplicity.
  sacked_.clear();
  hole_retx_.clear();
  snd_nxt_ = snd_una_;
  samples_.clear();
  try_send();
  arm_rto();
}

// ---------------------------------------------------------------------------
// Hybrid flow/packet engine bridge (clove::hybrid)
// ---------------------------------------------------------------------------

void TcpSender::hybrid_suspend() {
  hybrid_promoted_ = true;
  trace_next_ = false;
  // Treat everything already sent as delivered: the engine syncs the
  // receiver to the same point, so the in-flight packets arrive as stale
  // duplicates there and their ACKs are discarded here (see on_packet).
  if (snd_nxt_ > snd_una_) {
    stats_.bytes_acked += snd_nxt_ - snd_una_;
    snd_una_ = snd_nxt_;
  }
  dupacks_ = 0;
  in_recovery_ = false;
  rto_backoff_ = 0;
  sacked_.clear();
  hole_retx_.clear();
  samples_.clear();
  rto_timer_.cancel();
  tlp_timer_.cancel();
  const sim::Time now = port_.simulator().now();
  last_progress_ = now;
  while (!completions_.empty() && completions_.front().first <= snd_una_) {
    auto done = std::move(completions_.front().second);
    completions_.pop_front();
    done(now);
  }
}

void TcpSender::hybrid_advance(std::uint64_t pos, sim::Time now) {
  if (!hybrid_promoted_ || pos <= snd_una_) return;
  if (pos > stream_end_) pos = stream_end_;
  // Fluid bytes never ride packets, so both send- and ack-side counters
  // advance here to keep transport_totals conservation intact.
  stats_.bytes_sent += pos - snd_una_;
  stats_.bytes_acked += pos - snd_una_;
  snd_una_ = pos;
  if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
  last_progress_ = now;
  while (!completions_.empty() && completions_.front().first <= snd_una_) {
    auto done = std::move(completions_.front().second);
    completions_.pop_front();
    done(now);
  }
}

void TcpSender::hybrid_resume(double rate_bytes_per_sec, sim::Time now) {
  if (!hybrid_promoted_) return;
  hybrid_promoted_ = false;
  // Translate the fluid model's final fair-share rate into a window so the
  // packet-level flow resumes at the bandwidth it was just granted instead
  // of re-running slow start from scratch.
  const sim::Time rtt = srtt_ > 0 ? srtt_ : cfg_.initial_rtt;
  const auto bdp = static_cast<std::uint64_t>(
      rate_bytes_per_sec * static_cast<double>(rtt) /
      static_cast<double>(sim::kSecond));
  cwnd_ = std::clamp<std::uint64_t>(bdp, 2ull * cfg_.mss, cfg_.max_cwnd_bytes);
  ssthresh_ = cwnd_;
  dupacks_ = 0;
  in_recovery_ = false;
  rto_backoff_ = 0;
  ecn_reduce_until_ = snd_nxt_;  // stale pre-promotion ECE must not halve us
  last_progress_ = now;
  try_send();
}

// ---------------------------------------------------------------------------
// TcpReceiver
// ---------------------------------------------------------------------------

TcpReceiver::TcpReceiver(VmPort& port, net::FiveTuple reverse_tuple,
                         TcpConfig cfg)
    : port_(port),
      reverse_tuple_(reverse_tuple),
      cfg_(cfg),
      delack_timer_(port.simulator(), [this] { do_send_ack(); }) {
  if (cfg_.dctcp) cfg_.ecn = true;
}

void TcpReceiver::on_packet(net::PacketPtr pkt) {
  CLOVE_PROF_SCOPE(prof::kTransport);
  if (pkt->payload == 0) return;  // pure control; nothing to ack

  const bool ce = pkt->tcp.ce;
  bool ecn_transition = false;
  if (cfg_.dctcp) {
    ecn_transition = (ce != last_pkt_ce_);
    last_pkt_ce_ = ce;
  } else if (ce && !ece_latched_) {
    ece_latched_ = true;
    ecn_transition = true;
  }
  if (pkt->tcp.flags.cwr) ece_latched_ = false;

  const std::uint64_t seq = pkt->tcp.seq;
  const std::uint64_t end = seq + pkt->payload;
  bool out_of_order = false;

  if (end <= rcv_nxt_) {
    // Pure duplicate (e.g. spurious retransmit); ack immediately.
    out_of_order = true;
  } else if (seq <= rcv_nxt_) {
    rcv_nxt_ = end;
    // Drain any now-contiguous buffered segments.
    auto it = ooo_.begin();
    while (it != ooo_.end() && it->first <= rcv_nxt_) {
      rcv_nxt_ = std::max(rcv_nxt_, it->second);
      it = ooo_.erase(it);
    }
    if (on_deliver) on_deliver(rcv_nxt_);
  } else {
    out_of_order = true;
    ++reorder_events_;
    // Store [seq, end); keep the map disjoint by merging overlaps.
    auto [it, inserted] = ooo_.try_emplace(seq, end);
    if (!inserted) {
      it->second = std::max(it->second, end);
    }
    last_block_ = net::SackBlock{it->first, it->second};
  }

  ++unacked_segments_;
  send_ack(out_of_order || ecn_transition);
}

void TcpReceiver::hybrid_sync(std::uint64_t pos) {
  if (pos <= rcv_nxt_) return;
  rcv_nxt_ = pos;
  auto it = ooo_.begin();
  while (it != ooo_.end() && it->first <= rcv_nxt_) {
    rcv_nxt_ = std::max(rcv_nxt_, it->second);
    it = ooo_.erase(it);
  }
  last_block_ = net::SackBlock{};
  if (on_deliver) on_deliver(rcv_nxt_);
}

void TcpReceiver::send_ack(bool force) {
  if (force || unacked_segments_ >= cfg_.ack_every) {
    do_send_ack();
  } else if (!delack_timer_.pending()) {
    delack_timer_.schedule_in(cfg_.delack_timeout);
  }
}

void TcpReceiver::do_send_ack() {
  delack_timer_.cancel();
  unacked_segments_ = 0;
  auto ack = net::make_packet(port_.simulator());
  ack->inner = reverse_tuple_;
  ack->tcp.flags.ack = true;
  ack->tcp.ack = rcv_nxt_;
  ack->payload = 0;
  ack->ttl = 64;
  ack->sent_at = port_.simulator().now();
  if (cfg_.ecn) {
    const bool echo = cfg_.dctcp ? last_pkt_ce_ : ece_latched_;
    ack->tcp.flags.ece = echo;
  }
  // Attach up to 3 SACK blocks: the most recently received block first
  // (RFC 2018), then older blocks ascending.
  if (last_block_.end > last_block_.start && last_block_.start >= rcv_nxt_) {
    ack->tcp.sacks[ack->tcp.sack_count++] = last_block_;
  }
  for (const auto& [s, e] : ooo_) {
    if (ack->tcp.sack_count >= 3) break;
    if (s == last_block_.start) continue;
    ack->tcp.sacks[ack->tcp.sack_count++] = net::SackBlock{s, e};
  }
  port_.vm_send(std::move(ack));
}

}  // namespace clove::transport
