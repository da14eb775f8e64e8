#include "telemetry/hub.hpp"

namespace clove::telemetry {

void trace(Category cat, sim::Time now, std::string node, std::string name,
           std::string detail, double value, std::uint64_t id) {
  if (static_cast<int>(sim::log_level()) >=
      static_cast<int>(sim::LogLevel::kTrace)) {
    CLOVE_LOG(sim::LogLevel::kTrace, now, node.c_str(), "%s %s value=%g id=%llu",
              name.c_str(), detail.c_str(), value,
              static_cast<unsigned long long>(id));
  }
  if (!enabled()) return;
  TraceEvent ev;
  ev.t = now;
  ev.cat = cat;
  ev.node = std::move(node);
  ev.name = std::move(name);
  ev.detail = std::move(detail);
  ev.value = value;
  ev.id = id;
  current_scope().trace().record(std::move(ev));
}

}  // namespace clove::telemetry
