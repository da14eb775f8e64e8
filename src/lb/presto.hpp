#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "lb/pick.hpp"
#include "lb/policy.hpp"

namespace clove::lb {

struct PrestoConfig {
  std::uint32_t flowcell_bytes{64 * 1024};  ///< TSO-segment-sized flowcells
};

/// Presto adapted to L3 ECMP as the paper's §5 reimplementation does: each
/// flow is chopped into fixed-size 64 KB flowcells; flowcells rotate through
/// the discovered encapsulation source ports in a (weighted) round-robin,
/// oblivious to congestion. The receiving vswitch re-assembles out-of-order
/// flowcells before the VM sees them (VSwitchConfig::reorder_buffer).
///
/// For asymmetric topologies the real Presto needs a centralized controller
/// to push path weights; the paper (and we) grant it ideal static weights
/// via set_weight_fn().
class PrestoPolicy : public Policy {
 public:
  /// Given a path, return its static weight (default: uniform).
  using WeightFn = std::function<double(const overlay::PathInfo&)>;

  explicit PrestoPolicy(const PrestoConfig& cfg = {}) : cfg_(cfg) {}

  void set_weight_fn(WeightFn fn) { weight_fn_ = std::move(fn); }

  using Policy::pick_port;

  std::uint16_t pick_port(const net::Packet& inner, net::IpAddr dst,
                          sim::Time now, PickInfo* info) override {
    (void)now;
    auto dit = dsts_.find(dst);
    if (dit == dsts_.end() || dit->second.paths.empty()) {
      if (info != nullptr) *info = PickInfo{};
      return hash_port(inner.inner, 0x9137u);
    }
    DstState& st = dit->second;
    FlowState& fs = flows_[inner.inner];
    bool new_cell = false;
    if (fs.cell_bytes == 0 || fs.cell_bytes >= cfg_.flowcell_bytes) {
      // New flowcell: advance the per-flow weighted round-robin.
      fs.path_idx = wrr_pick(st, fs);
      fs.cell_bytes = 0;
      ++fs.flowcell_id;
      new_cell = true;
    }
    fs.cell_bytes += inner.payload;
    if (fs.path_idx >= st.paths.size()) fs.path_idx = 0;
    if (info != nullptr) {
      info->new_flowlet = new_cell;
      info->flowlet_id = fs.flowcell_id;
      info->reason = "flowcell";
      info->metric =
          fs.path_idx < st.weights.size() ? st.weights[fs.path_idx] : 0.0;
      info->n_paths = static_cast<std::uint16_t>(st.paths.size());
    }
    return st.paths[fs.path_idx].port;
  }

  void on_paths_updated(net::IpAddr dst, const overlay::PathSet& paths) override {
    DstState& st = dsts_[dst];
    st.paths = paths.paths;
    st.weights.clear();
    double total = 0.0;
    for (const auto& p : st.paths) {
      const double w = weight_fn_ ? weight_fn_(p) : 1.0;
      st.weights.push_back(w);
      total += w;
    }
    if (total > 0) {
      for (double& w : st.weights) w /= total;
    }
  }

  [[nodiscard]] std::string name() const override { return "presto"; }
  [[nodiscard]] bool needs_discovery() const override { return true; }
  [[nodiscard]] bool requires_reassembly() const override { return true; }

 private:
  struct DstState {
    std::vector<overlay::PathInfo> paths;
    std::vector<double> weights;
  };
  struct FlowState {
    std::uint64_t cell_bytes{0};
    std::uint32_t flowcell_id{0};
    std::size_t path_idx{0};
    std::vector<double> wrr_credit;
  };

  std::size_t wrr_pick(const DstState& st, FlowState& fs) {
    if (fs.wrr_credit.size() != st.weights.size()) {
      fs.wrr_credit.assign(st.weights.size(), 0.0);
    }
    return smooth_wrr(
        st.weights.size(), [&](std::size_t i) { return st.weights[i]; },
        [&](std::size_t i) -> double& { return fs.wrr_credit[i]; });
  }

  PrestoConfig cfg_;
  WeightFn weight_fn_;
  std::unordered_map<net::IpAddr, DstState> dsts_;
  std::unordered_map<net::FiveTuple, FlowState, net::FiveTupleHash> flows_;
};

}  // namespace clove::lb
