#pragma once

// One benchmark simulation, built and run phase by phase through the
// simulator's public API, so set-up (fabric build, discovery, workload
// install) is timed apart from traffic.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "hybrid/hybrid.hpp"
#include "net/topology.hpp"
#include "overlay/hypervisor.hpp"
#include "sim/simulator.hpp"
#include "workload/client_server.hpp"

namespace perfbench {

using namespace clove;

/// One named workload. The seed is the only other input.
struct WorkloadSpec {
  const char* name;
  /// k=8 fat-tree with an ECMP edge; false = the §5 asymmetric leaf-spine
  /// with a Clove-ECN edge and path discovery.
  bool fat_tree;
  bool hybrid;  ///< hybrid flow/packet engine on
  int jobs_per_conn;
  int conns_per_client;
  double load;
  /// Most independent simulations one benchmark seed stands for (see
  /// sub_seed); an untraced run completes as many as its time budget allows.
  int simulations;
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
/// Null when no workload has this name.
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);
/// Seed of simulation `i` of benchmark seed `seed`: 16 * seed + i.
[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed, int i);
/// The same inputs run packet-exact: the fidelity reference of a hybrid run.
[[nodiscard]] WorkloadSpec packet_exact(WorkloadSpec spec);

/// Simulated traffic start: discovery has this long to finish.
inline constexpr sim::Time kTrafficStart = 30 * sim::kMillisecond;
inline constexpr sim::Time kMaxSimTime = 600 * sim::kSecond;

/// The simulated outputs that must repeat exactly for one seed.
struct Digest {
  std::uint64_t events{0};
  std::uint64_t jobs{0};
  double mean_fct_s{0.0};
  double p99_fct_s{0.0};
  std::uint64_t drops{0};
  std::uint64_t ecn_marks{0};

  bool operator==(const Digest&) const = default;
  [[nodiscard]] std::uint64_t hash() const;
  [[nodiscard]] std::string to_string() const;
};

/// Everything one finished simulation reports, in simulated units or counts.
struct Outcome {
  Digest digest;
  std::uint64_t jobs_total{0};
  std::uint64_t bytes_offered{0};
  double mice_mean_fct_s{0.0};
  double sim_traffic_s{0.0};  ///< traffic start to last job completion
  std::uint64_t discovery_events{0};
  std::uint64_t traffic_events{0};
  std::uint64_t queue_hwm{0};
  // net
  std::uint64_t tx_packets{0};
  std::uint64_t pool_allocated{0};
  std::uint64_t pool_reused{0};
  // overlay
  std::uint64_t probes_sent{0};
  std::uint64_t paths_discovered{0};
  std::uint64_t encapped{0};
  std::uint64_t feedback_received{0};
  std::uint64_t ce_intercepted{0};
  // transport
  transport::TcpSenderStats transport{};
  // hybrid (zero when the engine is off)
  hybrid::HybridStats hybrid{};
};

/// Discovery coverage at traffic start.
struct DiscoveryReport {
  std::uint64_t pairs{0};          ///< directed (host, peer) pairs probed
  std::uint64_t pairs_missing{0};  ///< pairs with no usable path
  std::uint64_t paths{0};          ///< paths kept over all pairs
};

class Scenario {
 public:
  /// Builds the fabric, hosts, policies and (when on) the hybrid engine.
  Scenario(const WorkloadSpec& spec, std::uint64_t seed);
  ~Scenario();
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  void start_discovery();
  /// Installs connections and schedules every job from kTrafficStart on.
  void start_workload();
  /// Runs discovery to completion: every event before traffic start.
  void run_to_traffic_start();
  /// Runs until the last job completes.
  void run_traffic();
  [[nodiscard]] DiscoveryReport discovery_report();
  [[nodiscard]] Outcome collect();

  /// The experiment config a harness::run_fct_experiment call would need
  /// to reproduce a leaf-spine run (the equivalence test uses it).
  [[nodiscard]] static harness::ExperimentConfig testbed_config(
      const WorkloadSpec& spec, std::uint64_t seed);
  [[nodiscard]] static workload::ClientServerConfig workload_config(
      const WorkloadSpec& spec);

 private:
  WorkloadSpec spec_;
  std::uint64_t seed_;
  // Leaf-spine workloads run on the harness Testbed; fat-tree workloads own
  // their simulator, topology and hybrid engine (declared in the Testbed's
  // destruction order: engine, then topology, then simulator).
  std::unique_ptr<harness::Testbed> testbed_;
  std::unique_ptr<sim::Simulator> own_sim_;
  std::unique_ptr<net::Topology> own_topo_;
  std::unique_ptr<hybrid::Engine> own_engine_;
  sim::Simulator* sim_{nullptr};
  net::Topology* topo_{nullptr};
  hybrid::Engine* engine_{nullptr};
  std::vector<overlay::Hypervisor*> clients_;
  std::vector<overlay::Hypervisor*> servers_;
  double bisection_bytes_per_sec_{0.0};
  std::uint64_t discovery_events_{0};
  // Senders reference the hypervisors: destroyed first.
  std::unique_ptr<workload::ClientServerWorkload> wl_;
};

}  // namespace perfbench
