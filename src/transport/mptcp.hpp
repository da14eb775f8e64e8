#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "transport/tcp.hpp"

namespace clove::transport {

struct MptcpConfig {
  int subflows{4};                 ///< paper §5: best results with 4
  std::uint32_t chunk_bytes{64 * 1024};  ///< scheduler granularity
  bool coupled{true};              ///< LIA coupled increase vs uncoupled Reno
  TcpConfig tcp{};
};

/// A model of MPTCP (paper baseline): one logical connection striped over N
/// TCP subflows whose inner 5-tuples differ in source port, so ECMP may (or
/// may not — hash collisions!) place them on distinct paths. Data is handed
/// to subflows in chunks, lowest-backlog/lowest-RTT first, and the coupled
/// Linked-Increase Algorithm (LIA) throttles aggregate aggressiveness.
///
/// The properties the paper's evaluation leans on all emerge here:
///  * subflow-to-path mapping is static for the connection's lifetime, so a
///    connection whose subflows all collide on congested paths is stuck
///    (bad 99th percentile, Fig. 5c);
///  * N subflows ramp up together, amplifying incast bursts (Fig. 7).
class MptcpSender {
 public:
  using Completion = std::function<void(sim::Time acked_at)>;

  /// Subflow i uses src_port = base_tuple.src_port + i; every subflow
  /// pushes its RTT samples into `rtt_us` (see TcpSender).
  MptcpSender(VmPort& port, net::FiveTuple base_tuple, MptcpConfig cfg = {},
              telemetry::Histogram* rtt_us = nullptr);

  /// Append a job of `bytes`; `done` fires when every chunk is acked.
  void write(std::uint64_t bytes, Completion done = nullptr);

  [[nodiscard]] int subflow_count() const { return static_cast<int>(subflows_.size()); }
  [[nodiscard]] TcpSender& subflow(int i) { return *subflows_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] std::uint64_t total_cwnd() const;

  /// The host must route inbound ACKs to each subflow; expose endpoints.
  [[nodiscard]] std::vector<TcpSender*> endpoints();

 private:
  struct Job {
    std::uint64_t remaining_chunks{0};
    Completion done;
  };

  void pump();
  std::uint64_t lia_increase(std::size_t flow_idx, std::uint64_t acked) const;

  VmPort& port_;
  MptcpConfig cfg_;
  std::vector<std::unique_ptr<TcpSender>> subflows_;
  std::deque<std::pair<std::uint32_t, std::size_t>> pending_chunks_;  ///< (bytes, job idx)
  std::vector<Job> jobs_;
};

}  // namespace clove::transport
