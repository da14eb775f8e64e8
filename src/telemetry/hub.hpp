#pragma once

#include <string>

#include "sim/logging.hpp"
#include "sim/time.hpp"
#include "telemetry/scope.hpp"
#include "telemetry/trace.hpp"

namespace clove::telemetry {

/// Alias of current_scope() (see scope.hpp), kept for callers written
/// against it.
[[nodiscard]] inline Scope& hub() { return current_scope(); }

/// Record a structured trace event (and mirror it to stderr when the log
/// level is at kTrace, so CLOVE_LOG_LEVEL=trace shows the same stream the
/// ring captures). Call sites guard with `if (telemetry::tracing())` so the
/// disabled path costs a TLS load, a global load, and no argument evaluation.
void trace(Category cat, sim::Time now, std::string node, std::string name,
           std::string detail = {}, double value = 0.0, std::uint64_t id = 0);

/// True when trace events should be built at all: either the current scope is
/// collecting or the stderr log level wants them.
[[nodiscard]] inline bool tracing() {
  return enabled() ||
         static_cast<int>(sim::log_level()) >=
             static_cast<int>(sim::LogLevel::kTrace);
}

}  // namespace clove::telemetry
