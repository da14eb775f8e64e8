#include "net/switch.hpp"

#include "prof/prof.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/scope.hpp"

namespace clove::net {

Switch::Switch(sim::Simulator& sim, NodeId id, std::string name)
    : Node(id, std::move(name)), sim_(sim) {}

void Switch::receive(PacketPtr pkt, int in_port) {
  CLOVE_PROF_SCOPE(prof::kSwitchForward);
  // TTL processing, as a router would: decrement, and on expiry either
  // answer a traceroute probe or silently drop.
  if (pkt->ttl == 0) {
    ++stats_.ttl_drops;
    if (auto* fr = telemetry::flight()) {
      fr->on_drop(pkt->uid, id(), name(),
                  telemetry::JourneyOutcome::kDropTtl, sim_.now());
    }
    return;
  }
  pkt->ttl--;
  if (pkt->ttl == 0) {
    if (pkt->probe.probe_id != 0 && pkt->probe.hop_ip == kIpNone) {
      send_probe_reply(*pkt, in_port);
      if (auto* fr = telemetry::flight()) {
        // The probe terminated here by design — a legitimate consumption,
        // not a conservation violation.
        fr->on_drop(pkt->uid, id(), name(),
                    telemetry::JourneyOutcome::kConsumed, sim_.now());
      }
    } else {
      ++stats_.ttl_drops;
      if (auto* fr = telemetry::flight()) {
        fr->on_drop(pkt->uid, id(), name(),
                    telemetry::JourneyOutcome::kDropTtl, sim_.now());
      }
    }
    return;
  }
  forward(std::move(pkt), in_port);
}

void Switch::forward(PacketPtr pkt, int in_port) {
  const IpAddr dst = pkt->wire_dst();
  const PortSet* ports = route(dst);
  if (ports == nullptr) {
    ++stats_.no_route_drops;
    if (telemetry::tracing()) {
      telemetry::trace(telemetry::Category::kQueue, sim_.now(), name(),
                       "switch.no_route", "dst " + std::to_string(dst), 0.0,
                       dst);
    }
    if (auto* fr = telemetry::flight()) {
      fr->on_drop(pkt->uid, id(), name(),
                  telemetry::JourneyOutcome::kDropNoRoute, sim_.now());
    }
    return;
  }
  const int egress = select_port(*pkt, *ports, in_port);
  on_forward(*pkt, egress, in_port);
  ++stats_.forwarded;
  if (auto* fr = telemetry::flight(); fr != nullptr && fr->wants(pkt->uid)) {
    // Queue depth and ECN decision are recorded as the egress queue will see
    // this packet: the enqueue below applies exactly would_mark()'s condition.
    Link* l = port(egress);
    fr->on_hop(pkt->uid, id(), name(), in_port, egress, l->queue_bytes(),
               l->would_mark(*pkt), sim_.now());
  }
  port(egress)->enqueue(std::move(pkt));
}

int Switch::select_port(const Packet& pkt, const PortSet& ports,
                        int /*in_port*/) {
  if (ports.size() == 1) return ports[0];
  // One finalizer round over the cached prehash — identical decision to
  // hash_tuple(pkt.wire_tuple(), id()) but without re-mixing the tuple.
  return ports[salted_hash(pkt.wire_hash(), id()) % ports.size()];
}

void Switch::on_forward(Packet& /*pkt*/, int /*egress_port*/, int /*in_port*/) {}

void Switch::send_probe_reply(const Packet& probe, int in_port) {
  // Models the ICMP Time-Exceeded message a real switch would emit: a small
  // packet routed back to the prober, identifying the ingress interface it
  // arrived on (which is what lets traceroute tell parallel links apart).
  auto reply = make_packet(sim_);
  reply->inner.src_ip = ip();
  reply->inner.dst_ip = probe.wire_src();
  reply->inner.proto = Proto::kProbeReply;
  reply->payload = 64;
  reply->ttl = 64;
  reply->probe = probe.probe;
  reply->probe.hop_ip = ip();
  reply->probe.hop_ingress = in_port;
  reply->probe.from_destination = false;
  ++stats_.probe_replies;
  forward(std::move(reply), -1);
}

}  // namespace clove::net
