#include "net/link.hpp"

#include <algorithm>

#include "net/node.hpp"
#include "net/shard.hpp"
#include "prof/prof.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/scope.hpp"

namespace clove::net {

Link::Link(sim::Simulator& sim, LinkId id, std::string name, Node* dst,
           int dst_in_port, const LinkConfig& cfg)
    : sim_(sim),
      id_(id),
      name_(std::move(name)),
      dst_(dst),
      dst_in_port_(dst_in_port),
      cfg_(cfg) {
  dre_.configure(cfg_.dre_alpha, cfg_.dre_interval, cfg_.rate_bytes_per_sec);
}

void Link::enqueue(PacketPtr pkt) {
  if (down_) {
    ++stats_.drops_down;
    if (auto* fr = telemetry::flight()) {
      fr->on_drop(pkt->uid, dst_ != nullptr ? dst_->id() : 0, name_,
                  telemetry::JourneyOutcome::kDropLinkDown, sim_.now());
    }
    return;
  }
  if (fault_drop_prob_ > 0.0 && fault_rng_.uniform() < fault_drop_prob_) {
    // Injected gray failure: the packet vanishes with no observable signal
    // on the link itself — the only evidence is missing deliveries.
    ++stats_.drops_fault;
    if (telemetry::tracing()) {
      telemetry::trace(telemetry::Category::kFault, sim_.now(), name_,
                       "link.fault_drop", pkt->to_string(), fault_drop_prob_);
    }
    if (auto* fr = telemetry::flight()) {
      fr->on_drop(pkt->uid, dst_ != nullptr ? dst_->id() : 0, name_,
                  telemetry::JourneyOutcome::kDropFault, sim_.now());
    }
    return;
  }
  const std::int64_t wire = pkt->wire_size();
  if (queue_bytes_ + wire > cfg_.queue_capacity_bytes) {
    ++stats_.drops_overflow;
    if (telemetry::tracing()) {
      telemetry::trace(telemetry::Category::kQueue, sim_.now(), name_,
                       "link.drop_overflow", pkt->to_string(),
                       static_cast<double>(queue_bytes_));
    }
    if (auto* fr = telemetry::flight()) {
      fr->on_drop(pkt->uid, dst_ != nullptr ? dst_->id() : 0, name_,
                  telemetry::JourneyOutcome::kDropOverflow, sim_.now());
    }
    return;
  }
  // DCTCP-style marking: mark the arriving packet when the instantaneous
  // queue occupancy is at or above the threshold K (paper §3.2: 20 pkts).
  if (cfg_.ecn_marking &&
      queue_bytes_ + fluid_queue_bytes_ >= cfg_.ecn_threshold_bytes) {
    bool fresh_mark = false;
    if (pkt->encap.present && pkt->encap.ecn.ect) {
      fresh_mark = !pkt->encap.ecn.ce;
      pkt->encap.ecn.ce = true;
    } else if (!pkt->encap.present && pkt->tcp.ect) {
      fresh_mark = !pkt->tcp.ce;
      pkt->tcp.ce = true;
    }
    if (fresh_mark) ++stats_.ecn_marks;
  }
  queue_.push_back(std::move(pkt));
  queue_bytes_ += wire;
  stats_.max_queue_bytes = std::max(stats_.max_queue_bytes, queue_bytes_);
  if (!busy_) start_tx();
}

void Link::start_tx() {
  busy_ = true;
  in_flight_ = std::move(queue_.front());
  queue_.pop_front();
  const std::int64_t wire = in_flight_->wire_size();
  queue_bytes_ -= wire;
  // Memoize the delay: wire sizes repeat (MTU data, bare ACKs), and the
  // floating-point division in transmission_delay is per-packet hot.
  if (wire != memo_bytes_) {
    memo_bytes_ = wire;
    if (fluid_rate_ > 0.0) {
      // Fluid (flow-level) load claims its share of the line rate; real
      // packets serialize on the residual. Floored so a saturating elephant
      // slows mice sharing the link rather than stalling them outright.
      const double nominal = cfg_.rate_bytes_per_sec * capacity_factor_;
      const double residual = std::max(nominal - fluid_rate_, nominal * 0.05);
      memo_delay_ = sim::transmission_delay(wire, residual);
    } else {
      memo_delay_ = serialization_delay(wire);
    }
  }
  sim_.schedule_in(memo_delay_, [this] { on_tx_done(); });
}

void Link::on_tx_done() {
  CLOVE_PROF_SCOPE(prof::kLinkTx);
  if (down_ || !in_flight_) {
    // The link failed during serialization; the bits are lost.
    if (in_flight_) {
      if (auto* fr = telemetry::flight()) {
        fr->on_drop(in_flight_->uid, dst_ != nullptr ? dst_->id() : 0, name_,
                    telemetry::JourneyOutcome::kDropLinkDown, sim_.now());
      }
    }
    in_flight_.reset();
    busy_ = false;
    return;
  }
  PacketPtr pkt = std::move(in_flight_);
  const std::int64_t wire = pkt->wire_size();
  dre_.on_transmit(sim_.now(), wire);
  ++stats_.tx_packets;
  stats_.tx_bytes += static_cast<std::uint64_t>(wire);

  if (pkt->htrace.active) pkt->htrace.push(id_);

  if (cfg_.int_telemetry && pkt->int_stack.enabled) {
    if (fluid_rate_ > 0.0) {
      pkt->int_stack.push(static_cast<float>(utilization()));
    } else {
      pkt->int_stack.push(static_cast<float>(dre_.utilization(sim_.now())));
    }
  }
  if (cfg_.conga_metric && pkt->conga.present) {
    if (fluid_rate_ > 0.0) {
      pkt->conga.ce = std::max(pkt->conga.ce, utilization_quantized());
    } else {
      pkt->conga.ce = std::max(pkt->conga.ce, dre_.quantized(sim_.now()));
    }
  }

  if (channel_ != nullptr) {
    // Shard-crossing link: park the packet in the staging channel; the
    // coordinator schedules the delivery on the destination shard at the
    // next barrier. Conservative windows are bounded by the minimum
    // cross-shard propagation, so the delivery time is never in a window
    // that has already run.
    channel_->stage(sim_.now() + cfg_.propagation, std::move(pkt));
  } else {
    propagating_.emplace_back(sim_.now() + cfg_.propagation, std::move(pkt));
    if (!prop_wake_.valid()) {
      // A pending wake is always at an earlier-or-equal deadline (per-link
      // deadlines are monotone), so one outstanding wake per link suffices.
      prop_wake_ =
          sim_.schedule_in(cfg_.propagation, [this] { deliver_front(); });
    }
  }

  if (!queue_.empty()) {
    start_tx();
  } else {
    busy_ = false;
  }
}

void Link::deliver_front() {
  CLOVE_PROF_SCOPE(prof::kLinkDeliver);
  prop_wake_ = sim::EventId{};
  // Drain every packet whose deadline has arrived (several packets can share
  // a delivery instant), then re-arm a single wake for the new front.
  while (!propagating_.empty() && propagating_.front().first <= sim_.now()) {
    PacketPtr pkt = std::move(propagating_.front().second);
    propagating_.pop_front();
    if (down_) {
      ++stats_.drops_down;
      if (auto* fr = telemetry::flight()) {
        fr->on_drop(pkt->uid, dst_ != nullptr ? dst_->id() : 0, name_,
                    telemetry::JourneyOutcome::kDropLinkDown, sim_.now());
      }
      continue;
    }
    dst_->receive(std::move(pkt), dst_in_port_);
  }
  if (!propagating_.empty()) {
    prop_wake_ = sim_.schedule_at(propagating_.front().first,
                                  [this] { deliver_front(); });
  }
}

void Link::remote_deliver(PacketPtr pkt, sim::Time now) {
  CLOVE_PROF_SCOPE(prof::kLinkDeliver);
  if (down_) {
    ++stats_.drops_down;
    if (auto* fr = telemetry::flight()) {
      fr->on_drop(pkt->uid, dst_ != nullptr ? dst_->id() : 0, name_,
                  telemetry::JourneyOutcome::kDropLinkDown, now);
    }
    return;
  }
  dst_->receive(std::move(pkt), dst_in_port_);
}

void Link::down() {
  down_ = true;
  const std::uint64_t flushed =
      queue_.size() + propagating_.size() + (in_flight_ ? 1 : 0) +
      (channel_ != nullptr ? channel_->staged_count() : 0);
  stats_.drops_down += flushed;
  if (telemetry::tracing()) {
    telemetry::trace(telemetry::Category::kTopology, sim_.now(), name_,
                     "link.down", "flushed in-flight packets",
                     static_cast<double>(flushed));
  }
  if (auto* fr = telemetry::flight()) {
    // Finalize every flushed journey individually so the conservation
    // auditor can account for packets lost to the failure.
    const NodeId at = dst_ != nullptr ? dst_->id() : 0;
    while (!queue_.empty()) {
      fr->on_drop(queue_.front()->uid, at, name_,
                  telemetry::JourneyOutcome::kDropLinkDown, sim_.now());
      queue_.pop_front();
    }
    while (!propagating_.empty()) {
      fr->on_drop(propagating_.front().second->uid, at, name_,
                  telemetry::JourneyOutcome::kDropLinkDown, sim_.now());
      propagating_.pop_front();
    }
    if (in_flight_) {
      fr->on_drop(in_flight_->uid, at, name_,
                  telemetry::JourneyOutcome::kDropLinkDown, sim_.now());
    }
  }
  // Packets staged for a cross-shard delivery are in this link's pipe too
  // (they are counted in `flushed` above; the channel records their drops).
  if (channel_ != nullptr) channel_->flush_down(sim_.now());
  queue_.clear();
  queue_bytes_ = 0;
  propagating_.clear();
  if (prop_wake_.valid()) {
    sim_.cancel(prop_wake_);
    prop_wake_ = sim::EventId{};
  }
  in_flight_.reset();
  busy_ = false;
  if (fluid_observer_ != nullptr) fluid_observer_->on_link_changed(*this);
}

void Link::set_capacity_factor(double factor) {
  capacity_factor_ = std::clamp(factor, 1e-3, 1.0);
  memo_bytes_ = -1;  // cached serialization delay is for the old rate
  // Re-base the DRE on the degraded line rate: a link running at 25% that is
  // 25% full is saturated, and INT/CONGA must see it that way.
  dre_.configure(cfg_.dre_alpha, cfg_.dre_interval,
                 cfg_.rate_bytes_per_sec * capacity_factor_);
  if (telemetry::tracing()) {
    telemetry::trace(telemetry::Category::kFault, sim_.now(), name_,
                     "link.capacity_factor", "", capacity_factor_);
  }
  if (fluid_observer_ != nullptr) fluid_observer_->on_link_changed(*this);
}

void Link::set_fault_drop(double p, std::uint64_t seed) {
  fault_drop_prob_ = std::clamp(p, 0.0, 1.0);
  if (fault_drop_prob_ > 0.0) fault_rng_.reseed(seed);
  if (telemetry::tracing()) {
    telemetry::trace(telemetry::Category::kFault, sim_.now(), name_,
                     "link.fault_drop_prob", "", fault_drop_prob_);
  }
}

void Link::up() {
  down_ = false;
  dre_.reset();
  if (telemetry::tracing()) {
    telemetry::trace(telemetry::Category::kTopology, sim_.now(), name_,
                     "link.up");
  }
  if (fluid_observer_ != nullptr) fluid_observer_->on_link_changed(*this);
}

}  // namespace clove::net
