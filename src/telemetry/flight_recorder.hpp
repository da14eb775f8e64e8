#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "telemetry/json.hpp"
#include "util/flat_map.hpp"

namespace clove::telemetry {

/// How much provenance the flight recorder captures.
///  - kOff:     no recorder installed; the datapath guard is one TLS pointer
///              load that fails (the PR-3 fast path is untouched).
///  - kSampled: flow/flowlet records and auditors run for every packet, but
///              hop-by-hop journeys are kept only for uids where
///              `uid % sample_every == 0`.
///  - kFull:    journeys for every packet (the "reconstruct any packet" mode
///              used by tests and post-mortem debugging).
enum class FlightMode : std::uint8_t { kOff = 0, kSampled = 1, kFull = 2 };

[[nodiscard]] const char* flight_mode_name(FlightMode m);

struct FlightConfig {
  FlightMode mode{FlightMode::kOff};
  /// kSampled: journeys are kept for uids divisible by this.
  std::uint64_t sample_every{64};
  /// Cap on concurrently tracked (in-flight) journeys; new journeys beyond
  /// it are not tracked (counted in FlightSummary::not_tracked).
  std::size_t max_live_journeys{1u << 16};
  /// Completed journeys retained (ring of the most recent).
  std::size_t journey_ring{4096};
  /// Closed flowlet records retained for JSONL export (ring of most recent;
  /// the per-path usage aggregates below are exact regardless).
  std::size_t max_flowlet_records{1u << 15};
  /// Time-bucket width for the per-path usage aggregation.
  sim::Time usage_bucket{100 * sim::kMillisecond};

  /// CLOVE_FLIGHT_RECORDER=off|sampled|full, CLOVE_FLIGHT_SAMPLE=N.
  [[nodiscard]] static FlightConfig from_env();
};

/// One switch traversal: where the packet entered and left, the depth of the
/// egress queue it joined, and whether that enqueue ECN-marked it.
struct HopRecord {
  sim::Time t{0};
  std::uint32_t node{0};
  std::int16_t in_port{-1};
  std::int16_t out_port{-1};
  std::int64_t queue_bytes{0};
  bool ecn_marked{false};
};

enum class JourneyOutcome : std::uint8_t {
  kInFlight = 0,
  kDelivered,      ///< reached the destination hypervisor
  kConsumed,       ///< terminated legitimately in-fabric (probe TTL reply)
  kDropOverflow,   ///< drop-tail queue overflow
  kDropLinkDown,   ///< lost on a failed link
  kDropNoRoute,
  kDropTtl,
  kDropFault,      ///< probabilistic silent drop injected by clove::fault
};

[[nodiscard]] const char* journey_outcome_name(JourneyOutcome o);

/// Flow identity as the flight recorder keys it: the inner (tenant) 4-tuple
/// in sender orientation. Plain integers so net/ code can fill it without a
/// dependency in the other direction.
struct FlightFlowKey {
  std::uint32_t src_ip{0};
  std::uint32_t dst_ip{0};
  std::uint16_t src_port{0};
  std::uint16_t dst_port{0};

  bool operator==(const FlightFlowKey&) const = default;
  [[nodiscard]] bool valid() const { return src_ip != 0 || dst_ip != 0; }
  [[nodiscard]] std::string to_string() const;
};

struct FlightFlowKeyHash {
  std::uint64_t operator()(const FlightFlowKey& k) const noexcept {
    std::uint64_t z = (static_cast<std::uint64_t>(k.src_ip) << 32) | k.dst_ip;
    z ^= (static_cast<std::uint64_t>(k.src_port) << 16) | k.dst_port;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

/// A packet's reconstructed life: origin decision, per-switch hops, and how
/// it ended. ~400 bytes, pooled in a slab and recycled on finalize.
struct Journey {
  static constexpr std::size_t kMaxHops = 12;

  std::uint64_t uid{0};
  FlightFlowKey flow{};
  std::uint32_t origin{0};       ///< source hypervisor node id (0 = unseen)
  std::uint32_t dst_ip{0};       ///< destination hypervisor ip (from pick)
  std::uint16_t outer_port{0};   ///< encap source port the policy chose
  std::uint32_t flowlet_id{0};
  std::uint64_t seq{0};
  /// Per-flow transmission number (1, 2, ...). Retransmitted segments carry
  /// an old seq but a NEW send index, so arrival-order audits compare send
  /// order — the order the fabric was handed the packets in — not seq order.
  std::uint64_t send_idx{0};
  std::uint32_t payload{0};
  sim::Time t_start{0};
  sim::Time t_end{0};
  sim::Time t_last{0};           ///< last hook activity (conservation audit)
  JourneyOutcome outcome{JourneyOutcome::kInFlight};
  std::uint32_t end_node{0};     ///< node that delivered / dropped it
  bool has_origin{false};
  bool is_rtx{false};            ///< carried a retransmitted segment
  bool truncated{false};         ///< more than kMaxHops switch hops
  bool outer_ce{false};          ///< outer CE observed at delivery
  bool audited_stuck{false};     ///< already flagged by the conservation audit
  std::uint8_t n_hops{0};
  std::array<HopRecord, kMaxHops> hops{};

  /// The distinguishing mid-path node (the spine on a 3-hop leaf-spine
  /// journey); 0 when the path never left the source leaf.
  [[nodiscard]] std::uint32_t via() const {
    return n_hops >= 2 ? hops[1].node : 0;
  }
  /// True when every switch hop of a delivered packet is present.
  [[nodiscard]] bool full_path() const {
    return outcome == JourneyOutcome::kDelivered && n_hops > 0 && !truncated;
  }
};

/// IPFIX-style record of one (flow, flowlet): the decision that created it,
/// the physical path it was attributed to, and its delivery pathology.
struct FlowletRecord {
  FlightFlowKey flow{};
  std::uint32_t flowlet_id{0};
  std::uint16_t outer_port{0};
  std::uint32_t via{0};          ///< attributed mid-path node (0 = none yet)
  std::string path;              ///< full hop signature, e.g. "s1>c2>s3"
  const char* reason{""};        ///< policy decision rule ("wrr", ...)
  double metric{0.0};            ///< decision operand (weight / util / us)
  sim::Time t_start{0};
  sim::Time t_last{0};
  std::uint64_t packets{0};
  std::uint64_t bytes{0};
  std::uint64_t retransmits{0};  ///< source-side: payload below max seq sent
  std::uint64_t reorders{0};     ///< dest-side: in-flowlet arrival inversions
};

/// Per-(path, time-bucket) traffic aggregation, exact in full mode and a
/// sampled estimate otherwise. `via` 0 groups intra-leaf traffic.
struct PathUsage {
  std::uint32_t via{0};
  sim::Time bucket_start{0};
  std::uint64_t packets{0};
  std::uint64_t bytes{0};
  std::uint64_t flowlets{0};
};

struct AuditCounts {
  std::uint64_t conservation{0};     ///< packets that vanished in-fabric
  std::uint64_t flowlet_reorder{0};  ///< arrival inversions within a flowlet
  std::uint64_t vm_reorder{0};       ///< VM saw a sequence gap (payload skip)
  std::uint64_t ecn_mask{0};         ///< CE/ECE reached VM w/o all-congested
  [[nodiscard]] std::uint64_t total() const {
    return conservation + flowlet_reorder + vm_reorder + ecn_mask;
  }
};

struct FlightSummary {
  FlightMode mode{FlightMode::kOff};
  std::uint64_t packets_seen{0};      ///< on_pick calls (all data packets)
  std::uint64_t journeys_started{0};
  std::uint64_t delivered{0};
  std::uint64_t consumed{0};
  std::uint64_t dropped{0};
  std::uint64_t live{0};              ///< journeys still in flight at audit
  std::uint64_t full_paths{0};        ///< delivered with complete hop chain
  std::uint64_t not_tracked{0};       ///< journeys skipped (live cap)
  std::uint64_t flowlets{0};
  std::uint64_t flowlets_attributed{0};
  AuditCounts audit{};
  std::vector<PathUsage> paths;       ///< merged over time (one row per via)

  /// delivered -> full-path reconstruction rate in [0,1]; 1.0 when nothing
  /// was delivered (vacuously complete).
  [[nodiscard]] double reconstruction_rate() const {
    return delivered == 0
               ? 1.0
               : static_cast<double>(full_paths) / static_cast<double>(delivered);
  }
  [[nodiscard]] Json to_json() const;
};

/// The fabric flight recorder: per-packet path provenance, per-(flow,
/// flowlet) records, per-path usage aggregation, and always-on invariant
/// auditors. One instance per telemetry Scope; datapath code reaches the
/// thread's active recorder through telemetry::flight() (scope.hpp), which
/// is null whenever the mode is kOff — the disabled cost is one TLS load.
///
/// All hooks take plain integers/strings so net/ and overlay/ stay free of
/// reverse dependencies; node display names are learned from the hooks.
class FlightRecorder {
 public:
  explicit FlightRecorder(const FlightConfig& cfg);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  [[nodiscard]] const FlightConfig& config() const { return cfg_; }

  /// Whether `uid` gets a hop-by-hop journey (callers gate per-hop hooks on
  /// this so unsampled packets cost one modulo in sampled mode).
  [[nodiscard]] bool wants(std::uint64_t uid) const {
    return cfg_.mode == FlightMode::kFull || uid % cfg_.sample_every == 0;
  }

  /// Forget all recorded state (start of a new run); the config survives.
  void reset();

  // --- datapath hooks -----------------------------------------------------

  /// Source hypervisor made a load-balancing decision for a data packet.
  /// Updates the flow/flowlet records for every packet and opens a journey
  /// when wants(uid).
  void on_pick(std::uint64_t uid, std::uint32_t host,
               const std::string& host_name, const FlightFlowKey& flow,
               std::uint32_t dst_ip, std::uint16_t outer_port,
               std::uint32_t flowlet_id, const char* reason, double metric,
               std::uint64_t seq, std::uint32_t payload, sim::Time now);

  /// A switch forwarded the packet (callers pre-filter with wants(uid)).
  void on_hop(std::uint64_t uid, std::uint32_t node, const std::string& name,
              int in_port, int out_port, std::int64_t queue_bytes,
              bool ecn_marked, sim::Time now);

  /// The packet died in-fabric (drop) or was legitimately consumed there.
  void on_drop(std::uint64_t uid, std::uint32_t node, const std::string& name,
               JourneyOutcome outcome, sim::Time now);

  /// The packet reached a destination hypervisor NIC. Finalizes the journey,
  /// attributes the flowlet's physical path, and runs the within-flowlet
  /// arrival-order audit.
  void on_deliver(std::uint64_t uid, std::uint32_t node,
                  const std::string& name, bool outer_ce, sim::Time now);

  /// A packet crossed the vswitch/VM boundary (post reorder buffer). Always
  /// runs the ECN-masking audit (inner CE must never reach the guest); runs
  /// the VM-visible ordering audit only when `ordering_expected` — a reorder
  /// buffer is installed or the scheme requires one (Presto) — since flowlet
  /// schemes only make reordering unlikely, not illegal. Tracked first
  /// transmissions must then cross in send order; retransmissions are loss
  /// recovery and exempt.
  void on_vm_delivery(std::uint64_t uid, const FlightFlowKey& flow,
                      std::uint64_t seq, std::uint32_t payload, bool inner_ce,
                      bool ordering_expected, sim::Time now);

  /// The receiver-side reassembly buffer force-flushed `flow` (timeout or
  /// cap): it deliberately released past a gap, so every send already issued
  /// is amnestied from the VM ordering audit — only later sends must cross
  /// the boundary in order. Without a reassembly buffer this never fires,
  /// which is exactly why raw flowcell interleaving still gets flagged.
  void on_reassembly_flush(const FlightFlowKey& flow);

  /// The fabric recomputed routes (link failed / restored). A flowlet that
  /// straddles the recompute legally changes physical path mid-life, so
  /// every send already issued is amnestied from both ordering audits; the
  /// invariants re-arm for sends issued under the new routing epoch.
  void on_route_change();

  /// ECN-Echo is being surfaced to a guest TCP (arriving ECE or a forged
  /// one). Legal only while the policy reports every path congested (§3.2).
  void on_ecn_to_vm(bool all_paths_congested);

  // --- cross-shard journey handoff (net::ShardChannel) --------------------

  /// Copy the live journey for `uid` into `*out` and stop tracking it here,
  /// WITHOUT recording an outcome: the packet is leaving this shard, not
  /// ending. Returns false (leaving `*out` untouched) when uid is untracked.
  bool take_journey(std::uint64_t uid, Journey* out);

  /// Resume tracking a journey taken from another shard's recorder. The
  /// journey keeps its uid, hops, and origin decision; per-flow audit state
  /// does NOT transfer (flowlet attribution and ordering audits run where
  /// the flow's on_pick stream lives). Returns false — counting the journey
  /// as not_tracked — when the live cap is hit.
  bool adopt_journey(const Journey& j);

  // --- audits -------------------------------------------------------------

  /// Packet-conservation audit: every journey must end (delivered, consumed,
  /// or dropped with a reason). A journey idle longer than `grace` is a
  /// conservation violation — the packet vanished without passing a drop
  /// hook. Returns newly flagged violations (idempotent per journey).
  std::uint64_t audit_conservation(sim::Time now,
                                   sim::Time grace = 100 * sim::kMillisecond);

  [[nodiscard]] const AuditCounts& audit() const { return audit_; }

  /// Test hook invoked on every audit violation with (auditor, detail).
  void set_fail_handler(
      std::function<void(const char*, const std::string&)> fn) {
    fail_handler_ = std::move(fn);
  }

  // --- introspection / export --------------------------------------------

  [[nodiscard]] std::uint64_t packets_seen() const { return packets_seen_; }
  [[nodiscard]] std::uint64_t journeys_started() const { return started_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t live_journeys() const { return live_.size(); }
  /// Tracked first transmissions delivered to a vswitch but not yet consumed
  /// at the VM boundary (leak check for the VM-order audit staging map).
  [[nodiscard]] std::size_t pending_vm() const { return pending_vm_.size(); }

  /// Completed journeys, oldest retained first (bounded ring).
  [[nodiscard]] std::vector<const Journey*> journeys() const;
  /// Most recent completed journey for `uid`, if still retained.
  [[nodiscard]] const Journey* find_journey(std::uint64_t uid) const;

  /// Closed + still-open flowlet records (open ones last, in table order).
  [[nodiscard]] std::vector<FlowletRecord> flowlet_records() const;

  /// Per-(via, bucket) usage rows sorted by (bucket, via).
  [[nodiscard]] std::vector<PathUsage> path_usage() const;

  /// Display name learned for a node id ("n<id>" when never seen).
  [[nodiscard]] std::string node_name(std::uint32_t node) const;

  /// Runs the conservation audit, then summarizes everything.
  FlightSummary summary(sim::Time now,
                        sim::Time grace = 100 * sim::kMillisecond);

  /// One JSON object per line; schemas documented in DESIGN.md §7.
  [[nodiscard]] std::string journeys_jsonl() const;
  [[nodiscard]] std::string flows_jsonl() const;

 private:
  struct FlowState {
    FlowletRecord cur{};           ///< open flowlet (valid when open)
    bool open{false};
    bool attributed{false};        ///< cur has a via from a journey
    std::uint64_t max_seq_end{0};  ///< retransmit detection (source side)
    std::uint64_t send_counter{0}; ///< transmissions so far (send_idx source)
    // Destination-side audit state.
    std::uint32_t arr_flowlet{0};
    std::uint16_t arr_port{0};  ///< the tracked flowlet's outer port — a
                                ///< policy may legally re-pin a live flowlet
                                ///< to a new port when its path vanishes, so
                                ///< FIFO ordering only holds per (flowlet,
                                ///< port) segment
    std::uint64_t arr_last_send{0};
    bool arr_seen{false};
    /// Sends at/below this index are exempt from the within-flowlet audit:
    /// they were in flight across a route recompute (see on_route_change).
    std::uint64_t arr_amnesty{0};
    /// Highest first-transmission send index the VM has seen (vm audit).
    std::uint64_t vm_last_send{0};
    /// Sends at/below this index may legally reach the VM out of order: a
    /// forced reassembly flush released past a gap they can still fill, or
    /// a route recompute moved the flow mid-flight.
    std::uint64_t vm_amnesty{0};
  };

  Journey* journey_for(std::uint64_t uid);
  Journey* begin_journey(std::uint64_t uid, sim::Time now);
  void finalize(Journey& j, JourneyOutcome outcome, std::uint32_t end_node,
                sim::Time now);
  void close_flowlet(FlowState& fs);
  void bump_usage(std::uint32_t via, sim::Time t, std::uint64_t packets,
                  std::uint64_t bytes, std::uint64_t flowlets);
  void violation(const char* auditor, std::uint64_t AuditCounts::*counter,
                 const std::string& detail);
  void learn_name(std::uint32_t node, const std::string& name);

  FlightConfig cfg_;

  // Journey side-buffer: uid -> slab slot, plus a freelist so steady-state
  // tracking does not allocate.
  util::FlatMap<std::uint64_t, std::uint32_t> live_;
  std::vector<Journey> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Journey> ring_;    ///< completed journeys (bounded)
  std::size_t ring_next_{0};

  util::FlatMap<FlightFlowKey, FlowState, FlightFlowKeyHash> flows_;
  /// Delivered-but-not-yet-at-the-VM data packets (in a reorder buffer, or
  /// mid call stack): uid -> send_idx, consumed by on_vm_delivery.
  util::FlatMap<std::uint64_t, std::uint64_t> pending_vm_;
  std::vector<FlowletRecord> closed_flowlets_;  ///< bounded ring
  std::size_t closed_next_{0};
  util::FlatMap<std::uint64_t, PathUsage> usage_;  ///< (via, bucket) -> usage
  util::FlatMap<std::uint32_t, std::string> names_;

  std::uint64_t packets_seen_{0};
  std::uint64_t started_{0};
  std::uint64_t delivered_{0};
  std::uint64_t consumed_{0};
  std::uint64_t dropped_{0};
  std::uint64_t full_paths_{0};
  std::uint64_t not_tracked_{0};
  std::uint64_t flowlets_{0};
  std::uint64_t flowlets_attributed_{0};

  AuditCounts audit_{};
  std::function<void(const char*, const std::string&)> fail_handler_;
  int loud_prints_left_{8};
};

}  // namespace clove::telemetry
