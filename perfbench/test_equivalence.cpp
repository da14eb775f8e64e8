// The benchmark splits each run at simulated traffic start to time set-up
// apart from traffic. This test proves the split changes nothing: on a small
// testbed_asym config, the phase-by-phase composition gives a simulated
// digest identical to harness::run_fct_experiment with the same config and
// seed. Exit code 0 on success.

#include <cstdio>

#include "scenario.hpp"
#include "telemetry/hub.hpp"

int main() {
  using namespace perfbench;
  clove::telemetry::hub().set_enabled(false);
  WorkloadSpec spec = *find_workload("testbed_asym");
  spec.jobs_per_conn = 3;
  spec.conns_per_client = 1;

  int failures = 0;
  for (std::uint64_t seed : {1ull, 7ull}) {
    Scenario sc(spec, seed);
    sc.start_discovery();
    sc.start_workload();
    sc.run_to_traffic_start();
    sc.run_traffic();
    const Digest split = sc.collect().digest;

    const harness::ExperimentResult r = harness::run_fct_experiment(
        Scenario::testbed_config(spec, seed), Scenario::workload_config(spec));
    const Digest whole{r.events,    r.jobs,  r.avg_fct_s,
                       r.p99_fct_s, r.drops, r.ecn_marks};

    const bool same = split == whole && split.jobs > 0;
    std::printf("seed %llu: %s\n  split: %s\n  whole: %s\n",
                static_cast<unsigned long long>(seed), same ? "ok" : "MISMATCH",
                split.to_string().c_str(), whole.to_string().c_str());
    if (!same) ++failures;
  }
  return failures == 0 ? 0 : 1;
}
