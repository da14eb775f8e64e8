// Micro-benchmarks (google-benchmark) for the per-packet datapath
// operations Clove adds to the hypervisor vswitch (§4 "Minimal packet
// processing overhead"): ECMP hashing, flowlet-table touches, WRR picks,
// DRE updates, full policy pick_port() calls, and the simulator event/packet
// hot loop (events/sec and heap allocations per event — the perf baseline
// EXPERIMENTS.md tracks).
//
// With CLOVE_JSON_OUT=<dir> set, the custom main() below writes every
// benchmark's ns/op and user counters to <dir>/BENCH_micro.json so runs can
// be diffed across commits.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>

#include "bench_common.hpp"
#include "lb/clove_ecn.hpp"
#include "lb/clove_int.hpp"
#include "lb/ecmp.hpp"
#include "lb/edge_flowlet.hpp"
#include "lb/presto.hpp"
#include "net/packet_pool.hpp"
#include "overlay/flowlet.hpp"
#include "sim/simulator.hpp"
#include "telemetry/dre.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/metrics.hpp"

// --- allocation counting ---------------------------------------------------
// Program-wide operator new/delete override counting every heap allocation,
// so the event-loop benchmarks can report an exact allocs-per-event figure
// (the "zero heap allocations per steady-state packet event" claim).

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

std::uint64_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace clove;

net::FiveTuple tuple_for(int i) {
  return net::FiveTuple{1, 2, static_cast<std::uint16_t>(1000 + (i & 1023)),
                        80, net::Proto::kTcp};
}

overlay::PathSet four_paths() {
  overlay::PathSet ps;
  for (std::uint16_t i = 0; i < 4; ++i) {
    overlay::PathInfo p;
    p.port = static_cast<std::uint16_t>(50000 + i);
    p.hops = {{10, 0},
              {static_cast<net::IpAddr>(20 + i / 2), static_cast<int>(i % 2)},
              {11, static_cast<int>(i % 2)},
              {2, 0}};
    ps.paths.push_back(p);
  }
  return ps;
}

void BM_EcmpHash(benchmark::State& state) {
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::hash_tuple(tuple_for(i++), 42));
  }
}
BENCHMARK(BM_EcmpHash);

void BM_FlowletTouch(benchmark::State& state) {
  overlay::FlowletTracker tracker(100 * sim::kMicrosecond);
  sim::Time now = 0;
  int i = 0;
  for (auto _ : state) {
    now += 1000;
    benchmark::DoNotOptimize(tracker.touch(tuple_for(i++), now));
  }
}
BENCHMARK(BM_FlowletTouch);

void BM_DreUpdate(benchmark::State& state) {
  telemetry::Dre dre(0.1, 50 * sim::kMicrosecond, 1.25e9);
  sim::Time now = 0;
  for (auto _ : state) {
    now += 1200;
    dre.on_transmit(now, 1500);
    benchmark::DoNotOptimize(dre.utilization(now));
  }
}
BENCHMARK(BM_DreUpdate);

template <typename Policy>
void run_policy_bench(benchmark::State& state, Policy& policy,
                      bool with_paths) {
  if (with_paths) policy.on_paths_updated(2, four_paths());
  auto pkt = net::make_packet();
  sim::Time now = 0;
  int i = 0;
  for (auto _ : state) {
    now += 1000;
    pkt->inner = tuple_for(i++);
    pkt->payload = 1460;
    benchmark::DoNotOptimize(policy.pick_port(*pkt, 2, now));
  }
}

void BM_PickPort_Ecmp(benchmark::State& state) {
  lb::EcmpPolicy p;
  run_policy_bench(state, p, false);
}
BENCHMARK(BM_PickPort_Ecmp);

void BM_PickPort_EdgeFlowlet(benchmark::State& state) {
  lb::EdgeFlowletPolicy p;
  run_policy_bench(state, p, false);
}
BENCHMARK(BM_PickPort_EdgeFlowlet);

void BM_PickPort_CloveEcn(benchmark::State& state) {
  lb::CloveEcnPolicy p;
  run_policy_bench(state, p, true);
}
BENCHMARK(BM_PickPort_CloveEcn);

void BM_PickPort_CloveInt(benchmark::State& state) {
  lb::CloveIntPolicy p;
  run_policy_bench(state, p, true);
}
BENCHMARK(BM_PickPort_CloveInt);

void BM_PickPort_Presto(benchmark::State& state) {
  lb::PrestoPolicy p;
  run_policy_bench(state, p, true);
}
BENCHMARK(BM_PickPort_Presto);

// --- telemetry overhead ----------------------------------------------------
// The hub must be free when disabled (one predictable branch on the hot
// path) and cheap when enabled. Compare the *_Telemetry variants against
// their plain counterparts above: the disabled delta is the §4 "minimal
// overhead" claim for the instrumentation itself.

/// RAII: run one benchmark with the hub enabled, restore the default after.
struct ScopedTelemetry {
  explicit ScopedTelemetry(bool on) : was_(telemetry::hub().is_enabled()) {
    telemetry::hub().set_enabled(on);
  }
  ~ScopedTelemetry() {
    telemetry::hub().set_enabled(was_);
    telemetry::hub().begin_run();
  }
  bool was_;
};

void BM_PickPort_CloveEcn_Telemetry(benchmark::State& state) {
  ScopedTelemetry t(true);
  lb::CloveEcnPolicy p;
  run_policy_bench(state, p, true);
}
BENCHMARK(BM_PickPort_CloveEcn_Telemetry);

void BM_TelemetryGuard_Disabled(benchmark::State& state) {
  // The cost instrumented components pay when telemetry is off: one load +
  // branch around the (skipped) recording.
  ScopedTelemetry t(false);
  std::uint64_t n = 0;
  for (auto _ : state) {
    if (telemetry::enabled()) ++n;
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_TelemetryGuard_Disabled);

void BM_TelemetryCounterAdd_Enabled(benchmark::State& state) {
  ScopedTelemetry t(true);
  std::uint64_t n = 0;
  for (auto _ : state) {
    if (telemetry::enabled()) ++n;
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_TelemetryCounterAdd_Enabled);

void BM_TelemetryHistogramObserve(benchmark::State& state) {
  ScopedTelemetry t(true);
  telemetry::Histogram h;
  double v = 1.0;
  for (auto _ : state) {
    v = v < 1e6 ? v * 1.37 : 1.0;
    h.observe(v);
  }
  benchmark::DoNotOptimize(h);
}
BENCHMARK(BM_TelemetryHistogramObserve);

void BM_TraceRecord(benchmark::State& state) {
  ScopedTelemetry t(true);
  sim::Time now = 0;
  std::uint64_t id = 0;
  for (auto _ : state) {
    now += 1000;
    telemetry::trace(telemetry::Category::kFlowlet, now, "bench",
                     "bench.event", {}, 1.0, id++);
  }
  state.counters["dropped_oldest"] = static_cast<double>(
      telemetry::hub().trace().dropped_oldest());
}
BENCHMARK(BM_TraceRecord);

void BM_CloveEcnFeedback(benchmark::State& state) {
  lb::CloveEcnPolicy p;
  p.on_paths_updated(2, four_paths());
  net::CloveFeedback fb;
  fb.present = true;
  fb.ecn_set = true;
  sim::Time now = 0;
  int i = 0;
  for (auto _ : state) {
    now += 10'000;
    fb.port = static_cast<std::uint16_t>(50000 + (i++ & 3));
    p.on_feedback(2, fb, now);
  }
}
BENCHMARK(BM_CloveEcnFeedback);

// --- simulator event loop --------------------------------------------------
// The perf baseline behind the pooled-packet + slab-EventQueue + SmallFn
// datapath: events/sec through schedule->run and exact heap allocations per
// event. The first iterations warm the slab/pool (a handful of allocations);
// amortized over the run, steady state must read 0.00 allocs/event.

void report_events(benchmark::State& state, std::uint64_t allocs) {
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["allocs_per_event"] =
      benchmark::Counter(static_cast<double>(allocs),
                         benchmark::Counter::kAvgIterations);
}

void BM_EventChain(benchmark::State& state) {
  sim::Simulator sim;
  sim::Time t = 0;
  std::uint64_t fired = 0;
  const std::uint64_t a0 = alloc_count();
  for (auto _ : state) {
    t += 1000;
    sim.schedule_at(t, [&fired] { ++fired; });
    sim.run(t);
  }
  report_events(state, alloc_count() - a0);
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventChain);

void BM_PacketEvent_Pooled(benchmark::State& state) {
  // The steady-state datapath op: acquire a pooled packet, schedule an event
  // owning it (inline in the SmallFn buffer), fire it, packet returns to the
  // pool. Zero heap traffic once the pool and slab are warm.
  sim::Simulator sim;
  sim::Time t = 0;
  std::uint64_t bytes = 0;
  const std::uint64_t a0 = alloc_count();
  for (auto _ : state) {
    t += 1000;
    auto pkt = net::make_packet(sim);
    pkt->payload = 1460;
    sim.schedule_at(t, [&bytes, pkt = std::move(pkt)]() mutable {
      bytes += pkt->wire_size();
      pkt.reset();
    });
    sim.run(t);
  }
  report_events(state, alloc_count() - a0);
  state.counters["pool_allocated"] = static_cast<double>(
      net::PacketPool::of(sim).allocated());
  benchmark::DoNotOptimize(bytes);
}
BENCHMARK(BM_PacketEvent_Pooled);

void BM_PacketEvent_Heap(benchmark::State& state) {
  // Same op with the heap factory: one packet allocation per event (what
  // every packet cost before the pool; the std::function-era datapath added
  // two more for the callable and its shared_ptr holder).
  sim::Simulator sim;
  sim::Time t = 0;
  std::uint64_t bytes = 0;
  const std::uint64_t a0 = alloc_count();
  for (auto _ : state) {
    t += 1000;
    auto pkt = net::make_packet();
    pkt->payload = 1460;
    sim.schedule_at(t, [&bytes, pkt = std::move(pkt)]() mutable {
      bytes += pkt->wire_size();
      pkt.reset();
    });
    sim.run(t);
  }
  report_events(state, alloc_count() - a0);
  benchmark::DoNotOptimize(bytes);
}
BENCHMARK(BM_PacketEvent_Heap);

void BM_PacketPool_RoundTrip(benchmark::State& state) {
  sim::Simulator sim;
  auto& pool = net::PacketPool::of(sim);
  const std::uint64_t a0 = alloc_count();
  for (auto _ : state) {
    auto pkt = pool.acquire();
    benchmark::DoNotOptimize(pkt);
  }
  report_events(state, alloc_count() - a0);
}
BENCHMARK(BM_PacketPool_RoundTrip);

void BM_PacketHeap_RoundTrip(benchmark::State& state) {
  const std::uint64_t a0 = alloc_count();
  for (auto _ : state) {
    auto pkt = net::make_packet();
    benchmark::DoNotOptimize(pkt);
  }
  report_events(state, alloc_count() - a0);
}
BENCHMARK(BM_PacketHeap_RoundTrip);

// --- artifact emission -----------------------------------------------------

/// ConsoleReporter that additionally records every run's ns/op and user
/// counters into the bench Artifact, producing BENCH_micro.json when
/// CLOVE_JSON_OUT is set (see run_benches.sh).
class ArtifactReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    if (bench::Artifact* a = bench::Artifact::current()) {
      for (const Run& run : runs) {
        if (run.iterations == 0) continue;
        const double ns_per_op = run.real_accumulated_time /
                                 static_cast<double>(run.iterations) * 1e9;
        a->add_value(run.benchmark_name() + ".ns_per_op", ns_per_op);
        for (const auto& [cname, counter] : run.counters) {
          a->add_value(run.benchmark_name() + "." + cname, counter.value);
        }
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const auto scale = clove::harness::BenchScale::from_env();
  clove::bench::Artifact artifact("BENCH_micro",
                                  "micro datapath perf baseline", scale);
  // The Artifact enables telemetry for figure benches; here it would skew the
  // plain (telemetry-off) datapath numbers, and the *_Telemetry benchmarks
  // scope their own enablement anyway.
  clove::telemetry::hub().set_enabled(false);
  ArtifactReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
