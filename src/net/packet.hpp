#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "sim/time.hpp"

namespace clove::sim {
class Simulator;
}  // namespace clove::sim

namespace clove::net {

/// Node / endpoint address. In this simulator an IP address is simply the
/// node id of the host or switch interface that owns it.
using IpAddr = std::uint32_t;
inline constexpr IpAddr kIpNone = 0xffffffffu;

/// Transport protocol numbers (only the ones the simulator distinguishes).
enum class Proto : std::uint8_t {
  kTcp = 6,
  kStt = 97,        ///< overlay encapsulation carrier (modeled on STT/TCP)
  kProbe = 253,     ///< traceroute path-discovery probe
  kProbeReply = 254 ///< TTL-expiry or destination reply to a probe
};

/// The classic 5-tuple ECMP hashes on.
struct FiveTuple {
  IpAddr src_ip{kIpNone};
  IpAddr dst_ip{kIpNone};
  std::uint16_t src_port{0};
  std::uint16_t dst_port{0};
  Proto proto{Proto::kTcp};

  bool operator==(const FiveTuple&) const = default;

  [[nodiscard]] FiveTuple reversed() const {
    return FiveTuple{dst_ip, src_ip, dst_port, src_port, proto};
  }
  [[nodiscard]] std::string to_string() const;
};

/// Salt-free mix of the tuple fields (SplitMix64 chain). This is the
/// expensive half of ECMP hashing and depends only on the tuple, so the
/// datapath computes it once per packet (Packet::wire_hash) and every
/// switch on the path derives its decision from it with salted_hash().
[[nodiscard]] inline std::uint64_t tuple_prehash(const FiveTuple& t) {
  auto mix = [](std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  h = mix(h ^ (static_cast<std::uint64_t>(t.src_ip) << 32 | t.dst_ip));
  h = mix(h ^ (static_cast<std::uint64_t>(t.src_port) << 16 | t.dst_port));
  h = mix(h ^ static_cast<std::uint64_t>(t.proto));
  return h;
}

/// One SplitMix64 finalizer round over (prehash ^ salt): cheap per-switch
/// salting of a cached prehash. hash_tuple(t, s) == salted_hash(
/// tuple_prehash(t), s) by construction — switches may use either form and
/// reach the same ECMP decision.
[[nodiscard]] inline std::uint64_t salted_hash(std::uint64_t prehash,
                                               std::uint64_t salt) {
  std::uint64_t z = prehash ^ (salt * 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Deterministic 64-bit mix used for ECMP hashing (salted per switch) and
/// Presto flow ids. Splittable and platform-stable.
[[nodiscard]] inline std::uint64_t hash_tuple(const FiveTuple& t,
                                              std::uint64_t salt) {
  return salted_hash(tuple_prehash(t), salt);
}

struct FiveTupleHash {
  std::size_t operator()(const FiveTuple& t) const noexcept {
    return static_cast<std::size_t>(tuple_prehash(t));
  }
};

/// TCP flag bits (only the subset the simulator models).
struct TcpFlags {
  bool syn{false};
  bool fin{false};
  bool ack{false};
  bool ece{false};  ///< ECN-Echo (receiver -> sender)
  bool cwr{false};  ///< Congestion Window Reduced (sender -> receiver)
};

/// A SACK block: received bytes in [start, end).
struct SackBlock {
  std::uint64_t start{0};
  std::uint64_t end{0};
};

/// Inner (tenant VM) TCP header. Sequence numbers are 64-bit byte offsets —
/// a simulation convenience that removes wrap-around handling without
/// changing any of the dynamics the paper depends on.
struct TcpHeader {
  // Flag bytes lead so the fields the switch datapath reads (ect/ce, for
  // ECN marking of non-encapsulated packets) sit at the struct's front.
  TcpFlags flags{};
  bool ect{false};            ///< inner ECN-capable transport
  bool ce{false};             ///< inner congestion-experienced
  std::uint8_t sack_count{0};
  std::uint64_t seq{0};       ///< first payload byte carried
  std::uint64_t ack{0};       ///< cumulative ack (next expected byte)
  std::array<SackBlock, 3> sacks{};  ///< up to 3 SACK option blocks
};

/// ECN codepoint state carried in the (outer) IP header.
struct EcnBits {
  bool ect{false};  ///< ECN-capable transport
  bool ce{false};   ///< congestion experienced
};

/// Clove metadata carried in reserved STT-context bits of reverse traffic
/// (paper §3.2/§4): which forward-path source port the feedback refers to,
/// plus either a congestion bit (Clove-ECN) or a utilization value
/// (Clove-INT) or a one-way delay (Clove-Latency extension).
struct CloveFeedback {
  // The two 8-byte samples lead so the narrow fields pack behind them with
  // no padding (see Packet's layout note).
  double util{0.0};            ///< Clove-INT: max link utilization on path
  sim::Time latency{0};        ///< Clove-Latency: one-way delay measured
  std::uint16_t port{0};       ///< encapsulation source port being reported
  bool present{false};
  bool ecn_set{false};         ///< Clove-ECN: forward path saw CE
  bool has_util{false};
  bool has_latency{false};
};

/// CONGA VXLAN-style fields (simulation of the custom ASIC header):
/// forward direction carries (src_leaf, lb_tag, ce); feedback direction
/// carries (fb_tag, fb_ce) piggybacked on reverse traffic.
struct CongaFields {
  std::uint32_t src_leaf{0};  // leads, so the six byte fields pack behind it
  bool present{false};
  std::uint8_t lb_tag{0};   ///< uplink chosen at the source leaf
  std::uint8_t ce{0};       ///< max quantized congestion along path so far
  bool fb_present{false};
  std::uint8_t fb_tag{0};
  std::uint8_t fb_ce{0};
};

/// In-band Network Telemetry stack: per-hop egress utilization samples.
/// Whether a packet collects them is Packet::int_enabled(), kept inline.
struct IntStack {
  static constexpr int kMaxHops = 8;
  std::uint8_t count{0};
  std::array<float, kMaxHops> util{};

  void push(float u) {
    if (count < kMaxHops) util[count++] = u;
  }
  [[nodiscard]] float max_util() const {
    float m = 0.f;
    for (int i = 0; i < count; ++i) m = std::max(m, util[i]);
    return m;
  }
};

/// Path trace for the hybrid flow/packet engine (clove::hybrid): when a flow
/// is a promotion candidate, its next data segment is flagged
/// (Packet::trace_active()) and every Link it serializes on appends its id
/// here. The destination hypervisor reports the captured path so the fluid
/// model charges the exact links the flowlet actually traversed.
struct HybridTrace {
  static constexpr int kMaxLinks = 12;
  std::uint8_t count{0};
  std::array<std::uint32_t, kMaxLinks> links{};

  void push(std::uint32_t link_id) {
    if (count < kMaxLinks) {
      links[count] = link_id;
    }
    ++count;  // counts past kMaxLinks signal overflow (promotion aborted)
  }
  [[nodiscard]] bool overflowed() const { return count > kMaxLinks; }
};

/// The per-hop records a packet collects while it serializes on links. Only
/// Clove-INT packets and hybrid promotion candidates carry one, so it lives
/// out of line behind Packet's 8-byte handle instead of costing every packet
/// 88 bytes.
struct PathRecord {
  IntStack int_stack{};
  HybridTrace trace{};

  void clear() {
    int_stack.count = 0;
    trace.count = 0;
  }
};

/// Owning handle to a packet's PathRecord. A copy deep-copies the record (a
/// copied packet must not share per-hop state with its source);
/// copy-assignment writes into the target's record when it has one, so a
/// pooled packet keeps its storage; moves transfer ownership.
class PathRecordHandle {
 public:
  PathRecordHandle() = default;
  PathRecordHandle(const PathRecordHandle& o)
      : rec_(o.rec_ ? std::make_unique<PathRecord>(*o.rec_) : nullptr) {}
  PathRecordHandle& operator=(const PathRecordHandle& o) {
    if (o.rec_ == nullptr) {
      if (rec_ != nullptr) rec_->clear();
    } else if (rec_ != nullptr) {
      *rec_ = *o.rec_;
    } else {
      rec_ = std::make_unique<PathRecord>(*o.rec_);
    }
    return *this;
  }
  PathRecordHandle(PathRecordHandle&&) noexcept = default;
  PathRecordHandle& operator=(PathRecordHandle&&) noexcept = default;

  [[nodiscard]] PathRecord* get() const { return rec_.get(); }
  /// The record, allocated on first use.
  PathRecord& ensure() {
    if (rec_ == nullptr) rec_ = std::make_unique<PathRecord>();
    return *rec_;
  }

 private:
  std::unique_ptr<PathRecord> rec_;
};

/// Outer (overlay encapsulation) header: an STT-like tunnel header whose
/// source port is the knob Clove turns, plus context bits for feedback.
struct EncapHeader {
  // tuple/present/ecn lead: they are the forwarding-hot part (see Packet).
  FiveTuple tuple{};           ///< outer 5-tuple (hypervisor to hypervisor)
  bool present{false};
  EcnBits ecn{};               ///< outer IP ECN bits
  std::uint32_t flowcell_id{0};   ///< Presto: monotonically increasing per flow
  CloveFeedback feedback{};    ///< STT-context feedback bits
  std::uint64_t flow_hash{0};     ///< Presto: id of the inner flow
};

/// Presto / traceroute / host-level auxiliary metadata.
struct ProbeInfo {
  std::uint32_t probe_id{0};   ///< groups the TTL-laddered packets of a probe
  IpAddr hop_ip{kIpNone};      ///< node that answered (switch node id)
  std::int32_t hop_ingress{-1};///< ingress port the probe arrived on — the
                               ///< per-interface address real traceroute
                               ///< sees, distinguishing parallel links
  std::uint16_t probed_port{0};///< the encap source port under test
  std::uint8_t hop_index{0};   ///< set by the replying switch
  bool from_destination{false};///< reply came from the final hypervisor
};

/// Non-overlay deployments (§7): the source vswitch replaces the tenant
/// five-tuple's source port in place and hides the original value in TCP
/// options; the destination vswitch restores it before delivery.
struct RewriteInfo {
  bool rewritten{false};
  std::uint16_t orig_src_port{0};
};

/// A simulated packet. One header-union-of-structs instead of real byte
/// serialization: the simulator dispatches on these fields exactly where a
/// real datapath would parse them.
struct Packet {
  // Field order is a performance contract, not taxonomy: everything a
  // forwarding hop reads — the inner 5-tuple, payload size, TTL, the cached
  // wire hash, the path-record flags, and the leading fields of EncapHeader
  // (tuple / present / ecn) — packs into the first cache line. With
  // thousands of packets in flight a fabric hop is memory-bound, and this
  // keeps it to one line miss per packet instead of four (measured on
  // bench_fabric_forwarding). The rest is ordered so no field leaves
  // padding, and the per-hop records most packets never use live out of
  // line (PathRecord): at 98k packets in flight during discovery's probe
  // flood, every byte here is ~0.1 MB of peak RSS.

  // --- forwarding-hot line ----------------------------------------------
  FiveTuple inner{};           ///< VM-to-VM 5-tuple
  std::uint32_t payload{0};    ///< tenant payload bytes
  std::uint8_t ttl{64};

 private:
  friend class PacketPool;  // keeps the record across its in-place reset

  // --- forwarding fast-path cache (see wire_hash() below) ----------------
  mutable bool wire_hash_valid_{false};
  // Path-record flags: inline so a link's per-hop check reads no record.
  bool int_on_{false};
  bool trace_on_{false};
  mutable std::uint64_t wire_hash_{0};

 public:
  EncapHeader encap{};         ///< outer (physical network) header

  // --- endpoint / scheme-specific headers -------------------------------
  TcpHeader tcp{};
  RewriteInfo rewrite{};
  ProbeInfo probe{};
  CongaFields conga{};

  // --- bookkeeping ------------------------------------------------------
  sim::Time sent_at{0};        ///< timestamp at first NIC transmission
  std::uint64_t uid{0};        ///< unique id for tracing

 private:
  PathRecordHandle path_{};    ///< cold: INT samples and the hybrid trace

 public:
  /// Clove-INT: every link the packet serializes on pushes its egress
  /// utilization onto path_record()->int_stack; enable_int() empties it.
  [[nodiscard]] bool int_enabled() const { return int_on_; }
  IntStack& enable_int() {
    int_on_ = true;
    IntStack& s = path_.ensure().int_stack;
    s.count = 0;
    return s;
  }
  void disable_int() { int_on_ = false; }

  /// Hybrid path capture: every link the packet serializes on appends its
  /// id to path_record()->trace; start_trace() empties it.
  [[nodiscard]] bool trace_active() const { return trace_on_; }
  HybridTrace& start_trace() {
    trace_on_ = true;
    HybridTrace& t = path_.ensure().trace;
    t.count = 0;
    return t;
  }
  void stop_trace() { trace_on_ = false; }

  /// The out-of-line record: non-null whenever int_enabled() or
  /// trace_active() holds, and kept (cleared) when the pool recycles the
  /// packet, so a packet that once carried one allocates no second.
  [[nodiscard]] PathRecord* path_record() { return path_.get(); }
  [[nodiscard]] const PathRecord* path_record() const { return path_.get(); }

  /// The 5-tuple physical switches hash for ECMP: the outer one when the
  /// packet is encapsulated, else the inner one.
  [[nodiscard]] const FiveTuple& wire_tuple() const {
    return encap.present ? encap.tuple : inner;
  }

  [[nodiscard]] IpAddr wire_src() const { return wire_tuple().src_ip; }
  [[nodiscard]] IpAddr wire_dst() const { return wire_tuple().dst_ip; }

  /// Cached tuple_prehash(wire_tuple()), computed lazily on first use (the
  /// first switch the packet traverses) and reused by every later hop; each
  /// switch finalizes it with its own salt via salted_hash(). Any code that
  /// mutates the wire tuple after the packet entered the datapath (encap,
  /// decap, the non-overlay source-port rewrite) must call
  /// invalidate_wire_hash() or downstream switches would hash a stale tuple.
  [[nodiscard]] std::uint64_t wire_hash() const {
    if (!wire_hash_valid_) {
      wire_hash_ = tuple_prehash(wire_tuple());
      wire_hash_valid_ = true;
    }
    return wire_hash_;
  }
  void invalidate_wire_hash() { wire_hash_valid_ = false; }
  /// Whether the cache currently holds a value (test/diagnostic hook).
  [[nodiscard]] bool wire_hash_cached() const { return wire_hash_valid_; }

  /// Bytes on the wire: payload plus a fixed modeled header overhead.
  static constexpr std::uint32_t kHeaderBytes = 78;  // Eth+IP+TCP+STT approx
  [[nodiscard]] std::uint32_t wire_size() const { return payload + kHeaderBytes; }

  [[nodiscard]] std::string to_string() const;
};

// The hot-line offsets are pinned by PacketLayout.* in test_packet.cpp.
static_assert(sizeof(Packet) <= 216, "net::Packet outgrew its layout budget");

class PacketPool;

/// Deleter behind PacketPtr: returns the packet to its owning pool, or plain
/// `delete`s it when there is none (default-constructed, as for the heap
/// make_packet() below or a PacketPtr rebuilt from a released raw pointer —
/// pool packets are individually `new`ed, so either path is always safe).
struct PacketDeleter {
  PacketPool* pool{nullptr};
  void operator()(Packet* p) const noexcept;
};

using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

/// Heap factory stamping process-unique ids; exists so tests can build
/// packets tersely without a Simulator. Datapath code uses the pooled
/// overload below instead.
[[nodiscard]] PacketPtr make_packet();

/// Pooled factory: recycles packets through the per-Simulator PacketPool
/// (zero heap allocations in steady state) and stamps per-simulation uids,
/// which keeps id sequences deterministic under parallel sweeps.
[[nodiscard]] PacketPtr make_packet(sim::Simulator& sim);

}  // namespace clove::net
