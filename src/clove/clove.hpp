#pragma once

/// Umbrella header: the full public API of the Clove reproduction.
///
/// Most users want the harness (build the paper's testbed, pick a scheme,
/// run a workload):
///
///   #include "clove/clove.hpp"
///
///   clove::harness::ExperimentConfig cfg = clove::harness::make_testbed_profile();
///   cfg.scheme = clove::harness::Scheme::kCloveEcn;
///   clove::workload::ClientServerConfig wl;
///   wl.load = 0.7;
///   auto result = clove::harness::run_fct_experiment(cfg, wl);
///
/// Lower layers (simulator, network, transport, overlay, policies) are all
/// reachable from here for custom topologies and scenarios; see README.md
/// for the architecture map.

#include "harness/experiment.hpp"
#include "lb/clove_ecn.hpp"
#include "lb/ecmp.hpp"
#include "lb/edge_flowlet.hpp"
#include "lb/least_signal.hpp"
#include "lb/policy.hpp"
#include "lb/presto.hpp"
#include "net/conga_switch.hpp"
#include "net/letflow_switch.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "overlay/flowlet.hpp"
#include "overlay/hypervisor.hpp"
#include "overlay/paths.hpp"
#include "overlay/reorder_buffer.hpp"
#include "overlay/traceroute.hpp"
#include "sim/simulator.hpp"
#include "stats/stats.hpp"
#include "telemetry/dre.hpp"
#include "transport/mptcp.hpp"
#include "transport/tcp.hpp"
#include "workload/client_server.hpp"
#include "workload/flow_size.hpp"
