#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "overlay/hypervisor.hpp"
#include "stats/stats.hpp"
#include "telemetry/metrics.hpp"
#include "transport/mptcp.hpp"
#include "transport/tcp.hpp"
#include "workload/flow_size.hpp"

namespace clove::workload {

/// Configuration of the paper's RPC-style workload (§5 "Empirical
/// workload"): each client opens persistent connections to randomly chosen
/// servers; per connection, jobs arrive as a Poisson process with flow sizes
/// drawn from an empirical CDF; job completion time includes queueing behind
/// earlier jobs on the same connection.
/// How connections pick their servers.
enum class ServerAssignment {
  /// Balanced random pairing: every server receives the same number of
  /// connections (a random permutation per round). This keeps access links
  /// below saturation at any load < 100%, so the *fabric* is the bottleneck
  /// under study — the regime of the paper's Fig. 4/8 experiments. Without
  /// it, a server unlucky enough to attract 3+ connections saturates its
  /// 10G NIC regardless of the load balancer, drowning the fabric signal.
  kPermutation,
  /// Fully random choice per connection (hotspots possible).
  kUniformRandom,
};

struct ClientServerConfig {
  int conns_per_client{3};
  int jobs_per_conn{100};
  ServerAssignment assignment{ServerAssignment::kPermutation};
  double load{0.5};  ///< offered load as a fraction of bisection bandwidth
  double bisection_bytes_per_sec{sim::gbps_to_bytes_per_sec(160.0)};
  FlowSizeDistribution sizes{FlowSizeDistribution::web_search()};
  sim::Time start_time{50 * sim::kMillisecond};
  /// Arrival/size RNG seed. Unset means "derive it": ClientServerWorkload
  /// uses 42, harness::Testbed::workload_config derives it from the run seed.
  std::optional<std::uint64_t> seed;
  bool use_mptcp{false};
  transport::TcpConfig tcp{};
  transport::MptcpConfig mptcp{};
  std::uint16_t base_src_port{10000};
  std::uint16_t dst_port{80};
};

/// Drives the job workload over a built topology and records per-job FCTs.
class ClientServerWorkload {
 public:
  ClientServerWorkload(sim::Simulator& sim, const ClientServerConfig& cfg,
                       std::vector<overlay::Hypervisor*> clients,
                       std::vector<overlay::Hypervisor*> servers);

  /// Installs connections and schedules every job arrival. Run the simulator
  /// afterwards; `on_complete` fires when the last job finishes.
  void start(std::function<void()> on_complete = nullptr);

  /// Optional per-job completion tap (size, arrival, finish) — lets callers
  /// bucket FCTs by completion time (e.g. recovery benches). Set before
  /// start(); fires in addition to the aggregate FctRecorder.
  std::function<void(std::uint64_t size, sim::Time arrival, sim::Time finished)>
      on_job;

  [[nodiscard]] stats::FctRecorder& fct() { return fct_; }
  [[nodiscard]] std::uint64_t jobs_total() const { return jobs_total_; }
  [[nodiscard]] std::uint64_t jobs_done() const { return jobs_done_; }
  [[nodiscard]] std::uint64_t bytes_offered() const { return bytes_offered_; }

  /// Visit every sender (MPTCP subflows included) in connection order.
  void for_each_sender(
      const std::function<void(const transport::TcpSender&)>& fn) const;
  /// Aggregate sender-side transport counters across all connections.
  [[nodiscard]] transport::TcpSenderStats transport_totals() const;
  /// RTT samples (µs) of every sender, recorded while telemetry is enabled.
  [[nodiscard]] const telemetry::Histogram& rtt_us() const { return rtt_us_; }

 private:
  struct Connection {
    overlay::Hypervisor* client;
    overlay::Hypervisor* server;
    std::unique_ptr<transport::TcpSender> tcp;
    std::unique_ptr<transport::MptcpSender> mptcp;
  };

  void schedule_jobs(Connection& conn);
  void job_done(std::uint64_t size, sim::Time arrival, sim::Time finished);

  sim::Simulator& sim_;
  ClientServerConfig cfg_;
  std::vector<overlay::Hypervisor*> clients_;
  std::vector<overlay::Hypervisor*> servers_;
  telemetry::Histogram rtt_us_;  ///< shared by every sender in conns_
  std::vector<std::unique_ptr<Connection>> conns_;
  sim::Rng rng_;

  stats::FctRecorder fct_;
  std::uint64_t jobs_total_{0};
  std::uint64_t jobs_done_{0};
  std::uint64_t bytes_offered_{0};
  std::function<void()> on_complete_;
};

/// §5.3 incast: one client requests `total_bytes` split over `fanout`
/// servers that all respond at once on persistent connections; requests are
/// issued back to back. The metric is the client's achieved goodput.
struct IncastConfig {
  int fanout{8};
  std::uint64_t total_bytes{10'000'000};
  int requests{100};
  std::uint64_t seed{7};
  bool use_mptcp{false};
  transport::TcpConfig tcp{};
  transport::MptcpConfig mptcp{};
  sim::Time start_time{50 * sim::kMillisecond};
  std::uint16_t base_src_port{20000};
};

class IncastWorkload {
 public:
  IncastWorkload(sim::Simulator& sim, const IncastConfig& cfg,
                 overlay::Hypervisor* client,
                 std::vector<overlay::Hypervisor*> servers);

  void start(std::function<void()> on_complete = nullptr);

  /// Mean goodput across requests, in Gb/s.
  [[nodiscard]] double goodput_gbps() const;
  [[nodiscard]] stats::Samples& request_durations() { return durations_; }
  [[nodiscard]] int requests_done() const { return requests_done_; }

 private:
  struct ServerConn {
    overlay::Hypervisor* server;
    std::unique_ptr<transport::TcpSender> tcp;
    std::unique_ptr<transport::MptcpSender> mptcp;
  };

  void issue_request();
  void write_on(ServerConn& conn, std::uint64_t bytes,
                transport::TcpSender::Completion done);

  sim::Simulator& sim_;
  IncastConfig cfg_;
  overlay::Hypervisor* client_;
  std::vector<ServerConn> servers_;
  sim::Rng rng_;

  stats::Samples durations_;
  int requests_done_{0};
  int responses_pending_{0};
  sim::Time request_started_{0};
  std::function<void()> on_complete_;
};

}  // namespace clove::workload
