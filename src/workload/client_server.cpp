#include "workload/client_server.hpp"

#include <algorithm>

#include "prof/prof.hpp"

namespace clove::workload {

// ---------------------------------------------------------------------------
// ClientServerWorkload
// ---------------------------------------------------------------------------

ClientServerWorkload::ClientServerWorkload(
    sim::Simulator& sim, const ClientServerConfig& cfg,
    std::vector<overlay::Hypervisor*> clients,
    std::vector<overlay::Hypervisor*> servers)
    : sim_(sim),
      cfg_(cfg),
      clients_(std::move(clients)),
      servers_(std::move(servers)),
      rng_(cfg.seed.value_or(42)) {}

void ClientServerWorkload::start(std::function<void()> on_complete) {
  on_complete_ = std::move(on_complete);

  // Server assignment: one shuffled permutation of the servers per
  // connection round keeps every access link equally loaded (see
  // ServerAssignment for why this is the paper's operating regime).
  std::vector<std::size_t> perm(servers_.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::size_t perm_pos = perm.size();  // force a shuffle on first use
  auto next_server = [&]() -> overlay::Hypervisor* {
    if (cfg_.assignment == ServerAssignment::kUniformRandom) {
      return servers_[rng_.uniform_int(servers_.size())];
    }
    if (perm_pos >= perm.size()) {
      for (std::size_t i = 0; i < perm.size(); ++i) {
        std::swap(perm[i], perm[i + rng_.uniform_int(perm.size() - i)]);
      }
      perm_pos = 0;
    }
    return servers_[perm[perm_pos++]];
  };

  std::uint16_t next_port = cfg_.base_src_port;
  for (overlay::Hypervisor* client : clients_) {
    for (int c = 0; c < cfg_.conns_per_client; ++c) {
      auto conn = std::make_unique<Connection>();
      conn->client = client;
      conn->server = next_server();
      net::FiveTuple tuple{client->ip(), conn->server->ip(), next_port,
                           cfg_.dst_port, net::Proto::kTcp};
      // Source ports must be unique per client; sharing across clients is
      // fine (the IP differs). MPTCP reserves a port per subflow.
      next_port = static_cast<std::uint16_t>(
          next_port + (cfg_.use_mptcp ? cfg_.mptcp.subflows : 1));
      if (cfg_.use_mptcp) {
        transport::MptcpConfig mcfg = cfg_.mptcp;
        mcfg.tcp = cfg_.tcp;
        conn->mptcp =
            std::make_unique<transport::MptcpSender>(*client, tuple, mcfg);
        for (transport::TcpSender* sf : conn->mptcp->endpoints()) {
          client->register_endpoint(sf->tuple(), sf);
        }
      } else {
        conn->tcp =
            std::make_unique<transport::TcpSender>(*client, tuple, cfg_.tcp);
        client->register_endpoint(tuple, conn->tcp.get());
      }
      conns_.push_back(std::move(conn));
    }
  }

  for (auto& conn : conns_) schedule_jobs(*conn);
}

void ClientServerWorkload::schedule_jobs(Connection& conn) {
  // Offered load calibration: total arrival rate over all connections equals
  // load * bisection / mean_size; each connection carries a 1/n share.
  const double mean_size = cfg_.sizes.mean_bytes();
  const double lambda_total =
      cfg_.load * cfg_.bisection_bytes_per_sec / mean_size;
  const double per_conn_interarrival_s =
      static_cast<double>(conns_.size()) / lambda_total;

  sim::Time t = cfg_.start_time;
  Connection* cp = &conn;
  for (int j = 0; j < cfg_.jobs_per_conn; ++j) {
    t += sim::seconds(rng_.exponential(per_conn_interarrival_s));
    const std::uint64_t size = cfg_.sizes.sample(rng_);
    bytes_offered_ += size;
    ++jobs_total_;
    const sim::Time arrival = t;
    sim_.schedule_at(arrival, [this, cp, size, arrival] {
      CLOVE_PROF_SCOPE(prof::kWorkload);
      auto done = [this, size, arrival](sim::Time finished) {
        job_done(size, arrival, finished);
      };
      if (cp->mptcp) {
        cp->mptcp->write(size, done);
      } else {
        cp->tcp->write(size, done);
      }
    });
  }
}

void ClientServerWorkload::job_done(std::uint64_t size, sim::Time arrival,
                                    sim::Time finished) {
  CLOVE_PROF_SCOPE(prof::kWorkload);
  fct_.add(size, sim::to_seconds(finished - arrival));
  ++jobs_done_;
  if (on_job) on_job(size, arrival, finished);
  if (jobs_done_ == jobs_total_ && on_complete_) on_complete_();
}

transport::TcpSenderStats ClientServerWorkload::transport_totals() const {
  transport::TcpSenderStats total;
  auto fold = [&total](const transport::TcpSenderStats& s) {
    total.bytes_sent += s.bytes_sent;
    total.bytes_acked += s.bytes_acked;
    total.packets_sent += s.packets_sent;
    total.fast_retransmits += s.fast_retransmits;
    total.timeouts += s.timeouts;
    total.ecn_reductions += s.ecn_reductions;
  };
  for (const auto& conn : conns_) {
    if (conn->tcp) fold(conn->tcp->stats());
    if (conn->mptcp) {
      for (int i = 0; i < conn->mptcp->subflow_count(); ++i) {
        fold(conn->mptcp->subflow(i).stats());
      }
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// IncastWorkload
// ---------------------------------------------------------------------------

IncastWorkload::IncastWorkload(sim::Simulator& sim, const IncastConfig& cfg,
                               overlay::Hypervisor* client,
                               std::vector<overlay::Hypervisor*> servers)
    : sim_(sim), cfg_(cfg), client_(client), rng_(cfg.seed) {
  std::uint16_t port = cfg_.base_src_port;
  for (overlay::Hypervisor* server : servers) {
    ServerConn sc;
    sc.server = server;
    // Data flows server -> client on a pre-established persistent connection.
    net::FiveTuple tuple{server->ip(), client_->ip(), port, 9000,
                        net::Proto::kTcp};
    port = static_cast<std::uint16_t>(
        port + (cfg_.use_mptcp ? cfg_.mptcp.subflows : 1));
    if (cfg_.use_mptcp) {
      transport::MptcpConfig mcfg = cfg_.mptcp;
      mcfg.tcp = cfg_.tcp;
      sc.mptcp = std::make_unique<transport::MptcpSender>(*server, tuple, mcfg);
      for (transport::TcpSender* sf : sc.mptcp->endpoints()) {
        server->register_endpoint(sf->tuple(), sf);
      }
    } else {
      sc.tcp = std::make_unique<transport::TcpSender>(*server, tuple, cfg_.tcp);
      server->register_endpoint(tuple, sc.tcp.get());
    }
    servers_.push_back(std::move(sc));
  }
}

void IncastWorkload::start(std::function<void()> on_complete) {
  on_complete_ = std::move(on_complete);
  sim_.schedule_at(cfg_.start_time, [this] { issue_request(); });
}

void IncastWorkload::write_on(ServerConn& conn, std::uint64_t bytes,
                              transport::TcpSender::Completion done) {
  if (conn.mptcp) {
    conn.mptcp->write(bytes, std::move(done));
  } else {
    conn.tcp->write(bytes, std::move(done));
  }
}

void IncastWorkload::issue_request() {
  if (requests_done_ >= cfg_.requests) {
    if (on_complete_) on_complete_();
    return;
  }
  request_started_ = sim_.now();

  // Choose `fanout` distinct servers uniformly.
  std::vector<std::size_t> idx(servers_.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    std::swap(idx[i], idx[i + rng_.uniform_int(idx.size() - i)]);
  }
  const int fanout = std::min<int>(cfg_.fanout, static_cast<int>(idx.size()));
  const std::uint64_t share =
      cfg_.total_bytes / static_cast<std::uint64_t>(fanout);

  responses_pending_ = fanout;
  for (int i = 0; i < fanout; ++i) {
    write_on(servers_[idx[static_cast<std::size_t>(i)]], share,
             [this](sim::Time) {
               if (--responses_pending_ == 0) {
                 durations_.add(sim::to_seconds(sim_.now() - request_started_));
                 ++requests_done_;
                 issue_request();
               }
             });
  }
}

double IncastWorkload::goodput_gbps() const {
  double total_s = 0.0;
  for (double d : const_cast<stats::Samples&>(durations_).raw()) total_s += d;
  if (total_s <= 0.0) return 0.0;
  const double total_bits = static_cast<double>(cfg_.total_bytes) * 8.0 *
                            static_cast<double>(requests_done_);
  return total_bits / total_s / 1e9;
}

}  // namespace clove::workload
