#include "harness/shard_runner.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "harness/experiment.hpp"
#include "harness/parallel_runner.hpp"
#include "net/packet_pool.hpp"

namespace clove::harness {

int default_shards() {
  if (const char* env = std::getenv("CLOVE_SHARDS")) {
    const int n = std::atoi(env);
    if (n >= 1) return std::min(n, 256);
  }
  return 1;
}

namespace {

/// Spin briefly, then yield. Windows are short (tens of microseconds of
/// simulated work each), so a parked thread rarely waits long — but on
/// machines with fewer cores than workers a pure spin would burn the very
/// timeslice the running worker needs, so the loop backs off to the
/// scheduler. Returns the wait in wall ns when `timed`.
template <typename Pred>
std::uint64_t wait_until(Pred&& done, bool timed) {
  const std::uint64_t t0 = timed ? prof::detail::now_ns() : 0;
  int spins = 0;
  while (!done()) {
    if (++spins >= 256) {
      std::this_thread::yield();
      spins = 0;
    }
  }
  return timed ? prof::detail::now_ns() - t0 : 0;
}

}  // namespace

ShardRunner::ShardRunner(net::ShardDomain& domain, unsigned threads)
    : domain_(domain), n_(domain.shard_count()) {
  const unsigned want = threads == 0 ? default_threads() : threads;
  p_ = std::clamp(want, 1u, static_cast<unsigned>(n_));

  scope_of_.resize(static_cast<std::size_t>(n_));
  scope_of_[0] = &telemetry::current_scope();
  const telemetry::ScopeSettings settings = scope_of_[0]->settings();
  for (int s = 1; s < n_; ++s) {
    extra_scopes_.push_back(std::make_unique<telemetry::Scope>(settings));
    scope_of_[static_cast<std::size_t>(s)] = extra_scopes_.back().get();
  }
  for (int s = 0; s < n_; ++s) {
    domain_.set_scope(s, scope_of_[static_cast<std::size_t>(s)]);
    events_seen_.push_back(domain_.sim(s).events_processed());
  }

  if (prof::Profiler* session = prof::active()) {
    shard_profs_.reserve(static_cast<std::size_t>(n_));
    for (int s = 0; s < n_; ++s) {
      shard_profs_.push_back(std::make_unique<prof::Profiler>(session->mode()));
    }
  }

  threads_.reserve(p_ - 1);
  for (unsigned w = 1; w < p_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

ShardRunner::~ShardRunner() {
  if (p_ > 1) {
    quit_.store(true, std::memory_order_relaxed);
    gen_.fetch_add(1, std::memory_order_release);
    for (std::thread& t : threads_) t.join();
  }
  if (!shard_profs_.empty()) {
    for (int s = 0; s < n_; ++s) {
      prof::Profiler& sp = *shard_profs_[static_cast<std::size_t>(s)];
      sim::Simulator& sm = domain_.sim(s);
      sp.note_simulator(sm.events_processed(), sm.queue_high_water(),
                        sm.queue_slab_capacity());
      net::PacketPool& pool = net::PacketPool::of(sm);
      sp.note_pool(pool.allocated(), pool.reused());
    }
    if (prof::Profiler* session = prof::active()) {
      for (int s = 0; s < n_; ++s) {
        session->note_shard(s, *shard_profs_[static_cast<std::size_t>(s)]);
      }
      for (int s = 0; s < n_; ++s) {
        session->merge_from(*shard_profs_[static_cast<std::size_t>(s)]);
      }
    }
  }
  // The extra scopes die with this runner; leave no dangling registrations.
  for (int s = 0; s < n_; ++s) domain_.set_scope(s, nullptr);
}

void ShardRunner::run(sim::Time until) {
  const sim::Time lookahead = domain_.lookahead();
  for (;;) {
    const sim::Time t_next = domain_.next_event_time();
    const sim::Time t_global = domain_.next_global_time();
    const sim::Time start = std::min(t_next, t_global);
    if (start == sim::kTimeNever || start > until) break;
    if (t_global <= t_next) {
      // Every shard queue is empty below t_global, so the due actions run
      // with all clocks aligned at their timestamp — same relative order a
      // serial run gives events armed ahead of same-time packet work.
      domain_.run_globals_until(t_global);
      continue;
    }
    // Conservative window [start, end] (inclusive): bounded by the caller's
    // horizon, the next global action, and the lookahead — a packet staged
    // at t arrives no earlier than t + lookahead, which lands strictly past
    // the window, so no shard can receive a cross-shard event late.
    sim::Time end = until;
    if (lookahead != sim::kTimeNever && lookahead <= until - start) {
      end = std::min(end, start + lookahead - 1);
    }
    if (t_global != sim::kTimeNever) end = std::min(end, t_global - 1);
    execute_window(end);
    domain_.drain_channels();
  }
}

void ShardRunner::execute_window(sim::Time until_inclusive) {
  ++windows_;
  if (p_ == 1) {
    for (int s = 0; s < n_; ++s) run_shard(s, until_inclusive);
  } else {
    publish(until_inclusive);
    for (int s = 0; s < n_; s += static_cast<int>(p_)) {
      run_shard(s, until_inclusive);
    }
    wait_for_workers();
  }
  std::uint64_t busiest = 0;
  for (int s = 0; s < n_; ++s) {
    const std::uint64_t now = domain_.sim(s).events_processed();
    std::uint64_t& seen = events_seen_[static_cast<std::size_t>(s)];
    window_events_ += now - seen;
    busiest = std::max(busiest, now - seen);
    seen = now;
  }
  critical_events_ += busiest;
}

void ShardRunner::publish(sim::Time until_inclusive) {
  window_end_ = until_inclusive;
  done_.store(0, std::memory_order_relaxed);
  gen_.fetch_add(1, std::memory_order_release);
}

void ShardRunner::wait_for_workers() {
  const bool timed = !shard_profs_.empty();
  const std::uint64_t ns = wait_until(
      [&] { return done_.load(std::memory_order_acquire) == p_ - 1; }, timed);
  if (timed && ns != 0) shard_profs_[0]->add_span(prof::kShardSync, ns);
}

void ShardRunner::worker_loop(unsigned w) {
  std::uint64_t seen = 0;
  const bool timed = !shard_profs_.empty();
  prof::Profiler* sync_sink = timed ? shard_profs_[w].get() : nullptr;
  for (;;) {
    const std::uint64_t ns = wait_until(
        [&] { return gen_.load(std::memory_order_acquire) != seen; }, timed);
    if (sync_sink != nullptr && ns != 0) {
      sync_sink->add_span(prof::kShardSync, ns);
    }
    if (quit_.load(std::memory_order_relaxed)) return;
    seen = gen_.load(std::memory_order_acquire);
    const sim::Time until = window_end_;
    for (int s = static_cast<int>(w); s < n_; s += static_cast<int>(p_)) {
      run_shard(s, until);
    }
    done_.fetch_add(1, std::memory_order_release);
  }
}

void ShardRunner::run_shard(int s, sim::Time until_inclusive) {
  telemetry::ScopeGuard scope_guard(*scope_of_[static_cast<std::size_t>(s)]);
  if (shard_profs_.empty()) {
    domain_.sim(s).run(until_inclusive);
  } else {
    prof::InstallGuard prof_guard(shard_profs_[static_cast<std::size_t>(s)].get());
    domain_.sim(s).run(until_inclusive);
  }
}

std::string ShardRunner::metrics_digest(const net::Topology& topo,
                                        const fault::FaultInjector* faults) {
  std::map<std::string, double> fold;
  for (int s = 0; s < n_; ++s) {
    // The fabric and the injector span every shard, so they are read once;
    // each shard scope adds its own flight-recorder audits.
    const telemetry::MetricsSnapshot snap = collect_metrics(
        {.topology = s == 0 ? &topo : nullptr,
         .faults = s == 0 ? faults : nullptr,
         .flight = scope_of_[static_cast<std::size_t>(s)]->flight_recorder()});
    for (const telemetry::MetricSample& m : snap.samples) {
      // Gauges are instantaneous-occupancy high-watermarks (queue depth at
      // some instant). At an exactly-tied timestamp the interleave of a
      // cross-shard arrival against a local dequeue is resolved by event-
      // queue insertion order, which legitimately differs between the serial
      // engine and any shard decomposition — so a watermark can differ by
      // one transient packet while every packet's FATE (tx, drop, mark,
      // delivery) is identical. The digest therefore folds only the
      // counters; gauges stay inspectable in the snapshot.
      if (m.kind == telemetry::MetricKind::kGauge) continue;
      std::string key = m.name;
      for (const auto& [k, v] : m.labels) {
        key += '|';
        key += k;
        key += '=';
        key += v;
      }
      fold[key] += m.value;
    }
  }
  std::string out;
  char buf[32];
  for (const auto& [key, value] : fold) {
    // Which rows exist differs across shard counts (each shard scope's
    // flight recorder reports its own audits, all normally zero); the digest
    // keeps only rows that recorded something so it compares pure signal.
    if (value == 0.0) continue;
    std::snprintf(buf, sizeof buf, " %.17g", value);
    out += key;
    out += buf;
    out += '\n';
  }
  return out;
}

}  // namespace clove::harness
