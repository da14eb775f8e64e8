#include "transport/mptcp.hpp"

#include <algorithm>
#include <limits>

namespace clove::transport {

MptcpSender::MptcpSender(VmPort& port, net::FiveTuple base_tuple,
                         MptcpConfig cfg, telemetry::Histogram* rtt_us)
    : port_(port), cfg_(cfg) {
  for (int i = 0; i < cfg_.subflows; ++i) {
    net::FiveTuple t = base_tuple;
    t.src_port = static_cast<std::uint16_t>(base_tuple.src_port + i);
    auto sf = std::make_unique<TcpSender>(port_, t, cfg_.tcp, rtt_us);
    if (cfg_.coupled) {
      const std::size_t idx = static_cast<std::size_t>(i);
      sf->ca_increase = [this, idx](std::uint64_t acked) {
        return lia_increase(idx, acked);
      };
    }
    sf->on_progress = [this] { pump(); };
    subflows_.push_back(std::move(sf));
  }
}

std::vector<TcpSender*> MptcpSender::endpoints() {
  std::vector<TcpSender*> out;
  out.reserve(subflows_.size());
  for (auto& sf : subflows_) out.push_back(sf.get());
  return out;
}

std::uint64_t MptcpSender::total_cwnd() const {
  std::uint64_t total = 0;
  for (const auto& sf : subflows_) total += sf->cwnd();
  return total;
}

std::uint64_t MptcpSender::lia_increase(std::size_t flow_idx,
                                        std::uint64_t acked) const {
  // LIA (RFC 6356): increase = min( alpha * acked * mss / cwnd_total,
  //                                 acked * mss / cwnd_i )
  // with alpha = cwnd_total * max_i(cwnd_i / rtt_i^2) / (sum_i cwnd_i/rtt_i)^2.
  const std::uint64_t mss = cfg_.tcp.mss;
  double max_term = 0.0;
  double sum_term = 0.0;
  for (const auto& sf : subflows_) {
    const double rtt = std::max(1e-6, sim::to_seconds(sf->srtt() > 0
                                                          ? sf->srtt()
                                                          : cfg_.tcp.initial_rtt));
    const double w = static_cast<double>(sf->cwnd());
    max_term = std::max(max_term, w / (rtt * rtt));
    sum_term += w / rtt;
  }
  const double total = static_cast<double>(total_cwnd());
  if (sum_term <= 0.0) return mss * acked / std::max<std::uint64_t>(1, total_cwnd());
  const double alpha = total * max_term / (sum_term * sum_term);
  const double coupled = alpha * static_cast<double>(acked * mss) / total;
  const double uncoupled =
      static_cast<double>(acked * mss) /
      static_cast<double>(std::max<std::uint64_t>(1, subflows_[flow_idx]->cwnd()));
  return static_cast<std::uint64_t>(std::max(0.0, std::min(coupled, uncoupled)));
}

void MptcpSender::write(std::uint64_t bytes, Completion done) {
  jobs_.push_back(Job{});
  Job& job = jobs_.back();
  const std::size_t job_idx = jobs_.size() - 1;
  std::uint64_t left = bytes;
  while (left > 0) {
    const std::uint32_t chunk = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(left, cfg_.chunk_bytes));
    pending_chunks_.emplace_back(chunk, job_idx);
    ++job.remaining_chunks;
    left -= chunk;
  }
  job.done = std::move(done);
  if (job.remaining_chunks == 0) {
    // Zero-byte job: complete immediately.
    if (job.done) job.done(port_.simulator().now());
  }
  pump();
}

void MptcpSender::pump() {
  while (!pending_chunks_.empty()) {
    // Choose the subflow with window room and the smallest backlog-to-cwnd
    // ratio (ties: lowest smoothed RTT) — a practical model of the Linux
    // MPTCP lowest-RTT-first scheduler.
    TcpSender* best = nullptr;
    double best_score = std::numeric_limits<double>::max();
    for (auto& sf : subflows_) {
      const std::uint64_t backlog = sf->stream_end() - sf->snd_una();
      if (backlog >= sf->cwnd() + cfg_.chunk_bytes) continue;  // saturated
      const double score =
          static_cast<double>(backlog) /
              static_cast<double>(std::max<std::uint64_t>(1, sf->cwnd())) +
          1e-9 * static_cast<double>(sf->srtt());
      if (score < best_score) {
        best_score = score;
        best = sf.get();
      }
    }
    if (best == nullptr) return;  // all subflows saturated; wait for ACKs

    auto [chunk, job_idx] = pending_chunks_.front();
    pending_chunks_.pop_front();
    best->write(chunk, [this, job_idx](sim::Time t) {
      Job& job = jobs_[job_idx];
      if (--job.remaining_chunks == 0 && job.done) job.done(t);
    });
  }
}

}  // namespace clove::transport
