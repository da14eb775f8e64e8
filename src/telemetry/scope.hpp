#pragma once

#include <cstddef>
#include <memory>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/trace.hpp"

namespace clove::telemetry {

/// Construction-time knobs for a telemetry Scope. from_env() reads the same
/// environment variables the process-wide hub always honored:
///   CLOVE_TELEMETRY=1           enable collection
///   CLOVE_TRACE_CAPACITY=N      trace ring size (default 65536 events)
///   CLOVE_TRACE_CATEGORIES=a,b  category filter (e.g. "weight,topology")
///   CLOVE_FLIGHT_RECORDER=off|sampled|full   flight recorder mode
///   CLOVE_FLIGHT_SAMPLE=N       sampled mode: journey every Nth packet
struct ScopeSettings {
  bool enabled{false};
  std::size_t trace_capacity{TraceLog::kDefaultCapacity};
  unsigned trace_filter{kAllCategories};
  FlightConfig flight{};

  [[nodiscard]] static ScopeSettings from_env();
};

/// One telemetry collection domain: an on/off flag, a trace ring and a flight
/// recorder. Scoping them lets harness::ParallelRunner give every
/// concurrently running sweep point its own isolated ring and recorder — no
/// cross-thread sharing, no locks on the recording hot path — while
/// single-threaded code keeps using the implicit process scope through
/// current_scope(). Metrics are not kept here: harness::collect_metrics
/// reads them from the components' own stats when a snapshot is taken.
///
/// A Scope is not itself thread-safe; it is installed on exactly one thread
/// at a time via ScopeGuard.
class Scope {
 public:
  Scope() = default;
  explicit Scope(const ScopeSettings& s)
      : enabled_(s.enabled), flight_cfg_(s.flight) {
    trace_.set_capacity(s.trace_capacity);
    trace_.set_filter(s.trace_filter);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] TraceLog& trace() { return trace_; }

  /// Flip collection for this scope; when the scope is current on the calling
  /// thread, the hot-path enabled() flag is updated too.
  void set_enabled(bool on);
  [[nodiscard]] bool is_enabled() const { return enabled_; }

  /// The scope's flight recorder, or null while the configured mode is kOff.
  /// Created lazily on first use so disabled runs never pay for the tables.
  [[nodiscard]] FlightRecorder* flight_recorder();
  /// Reconfigure (and when mode != kOff, (re)create) the flight recorder.
  /// When this scope is current on the calling thread, the thread's active
  /// recorder pointer is updated too.
  void set_flight_config(const FlightConfig& cfg);
  [[nodiscard]] const FlightConfig& flight_config() const { return flight_cfg_; }

  /// Start-of-run housekeeping: clear the trace ring and the flight recorder
  /// so each experiment's exports reflect that experiment only. The recorder
  /// object itself survives, so a cached flight() pointer stays valid.
  void begin_run() {
    trace_.clear();
    if (flight_) flight_->reset();
  }

  /// The knobs a child scope should inherit to behave like this one.
  [[nodiscard]] ScopeSettings settings() const {
    return ScopeSettings{enabled_, trace_.capacity(), trace_.filter(),
                         flight_cfg_};
  }

 private:
  TraceLog trace_;
  bool enabled_{false};
  FlightConfig flight_cfg_{};
  std::unique_ptr<FlightRecorder> flight_;
};

// The thread-locals are constinit: statically initialized, so each access is
// a plain TLS load with no call through a lazy-init wrapper.
namespace detail {
/// The scope telemetry records into on this thread (null until a ScopeGuard
/// installs one or current_scope() falls back to the lazy process scope).
extern constinit thread_local Scope* tl_scope;
/// Mirror of current scope's is_enabled(), kept thread-local so the hot-path
/// guard stays a single TLS bool load.
extern constinit thread_local bool tl_enabled;
/// The current scope's flight recorder when (and only when) its mode is not
/// kOff — the datapath's disabled-cost guard is this one TLS pointer load.
extern constinit thread_local FlightRecorder* tl_flight;
}  // namespace detail

/// The zero-cost-when-disabled guard: one thread-local bool load. Every
/// hot-path recording site checks this before observing a sample or building
/// an event.
[[nodiscard]] inline bool enabled() { return detail::tl_enabled; }

/// The thread's active flight recorder (null unless a scope with mode
/// sampled/full is current). Datapath hooks are written as
///   if (auto* fr = telemetry::flight()) fr->on_...(...);
/// so a disabled recorder costs exactly one TLS pointer load.
[[nodiscard]] inline FlightRecorder* flight() { return detail::tl_flight; }
[[nodiscard]] inline bool flight_active() { return detail::tl_flight != nullptr; }

/// The scope telemetry resolves against on this thread. Threads with no
/// installed scope (the main thread, plain tests) share a lazily created
/// process-wide scope configured from the environment — the pre-scope
/// singleton behavior, unchanged.
[[nodiscard]] Scope& current_scope();

/// RAII installer: makes `s` the calling thread's current scope for the
/// guard's lifetime, restoring the previous scope (and its enabled flag) on
/// destruction. Used by the parallel runner around each sweep point.
class ScopeGuard {
 public:
  explicit ScopeGuard(Scope& s)
      : prev_(detail::tl_scope),
        prev_enabled_(detail::tl_enabled),
        prev_flight_(detail::tl_flight) {
    detail::tl_scope = &s;
    detail::tl_enabled = s.is_enabled();
    detail::tl_flight = s.flight_recorder();
  }
  ~ScopeGuard() {
    detail::tl_scope = prev_;
    detail::tl_enabled = prev_enabled_;
    detail::tl_flight = prev_flight_;
  }
  ScopeGuard(const ScopeGuard&) = delete;
  ScopeGuard& operator=(const ScopeGuard&) = delete;

 private:
  Scope* prev_;
  bool prev_enabled_;
  FlightRecorder* prev_flight_;
};

}  // namespace clove::telemetry
