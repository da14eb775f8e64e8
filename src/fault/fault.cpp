#include "fault/fault.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "net/shard.hpp"
#include "overlay/hypervisor.hpp"
#include "sim/logging.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/scope.hpp"
#include "telemetry/trace.hpp"

namespace clove::fault {

namespace {
/// Fractional-millisecond JSON fields -> simulated time.
clove::sim::Time ms_to_time(double ms) {
  return static_cast<clove::sim::Time>(
      ms * static_cast<double>(clove::sim::kMillisecond));
}
}  // namespace

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
    case FaultKind::kLinkDegrade: return "degrade";
    case FaultKind::kLinkDrop: return "drop";
    case FaultKind::kSwitchDown: return "switch_down";
    case FaultKind::kSwitchUp: return "switch_up";
    case FaultKind::kFeedbackLoss: return "feedback_loss";
    case FaultKind::kFeedbackDelay: return "feedback_delay";
  }
  return "?";
}

bool parse_fault_kind(const std::string& name, FaultKind* out) {
  static constexpr FaultKind kAll[] = {
      FaultKind::kLinkDown,   FaultKind::kLinkUp,
      FaultKind::kLinkDegrade, FaultKind::kLinkDrop,
      FaultKind::kSwitchDown, FaultKind::kSwitchUp,
      FaultKind::kFeedbackLoss, FaultKind::kFeedbackDelay,
  };
  for (FaultKind k : kAll) {
    if (name == fault_kind_name(k)) {
      if (out != nullptr) *out = k;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

FaultPlan& FaultPlan::add(sim::Time at, FaultKind kind, std::string target,
                          double value) {
  events.push_back(FaultEvent{at, kind, std::move(target), value});
  return *this;
}

telemetry::Json FaultPlan::to_json() const {
  telemetry::Json doc = telemetry::Json::object();
  doc.set("seed", static_cast<std::uint64_t>(seed));
  doc.set("route_convergence_ms", sim::to_milliseconds(route_convergence));
  telemetry::Json evs = telemetry::Json::array();
  for (const FaultEvent& ev : events) {
    telemetry::Json e = telemetry::Json::object();
    e.set("at_ms", sim::to_milliseconds(ev.at));
    e.set("kind", fault_kind_name(ev.kind));
    e.set("target", ev.target);
    if (ev.value != 0.0) e.set("value", ev.value);
    evs.push_back(std::move(e));
  }
  doc.set("events", std::move(evs));
  return doc;
}

namespace {
bool parse_event(const telemetry::Json& e, FaultEvent* out,
                 std::string* error) {
  if (!e.is_object()) {
    if (error != nullptr) *error = "fault event is not an object";
    return false;
  }
  if (!e.contains("at_ms") || !e["at_ms"].is_number()) {
    if (error != nullptr) *error = "fault event missing numeric 'at_ms'";
    return false;
  }
  out->at = ms_to_time(e["at_ms"].as_number());
  if (!parse_fault_kind(e["kind"].as_string(), &out->kind)) {
    if (error != nullptr) {
      *error = "unknown fault kind '" + e["kind"].as_string() + "'";
    }
    return false;
  }
  if (!e.contains("target") || !e["target"].is_string() ||
      e["target"].as_string().empty()) {
    if (error != nullptr) *error = "fault event missing 'target'";
    return false;
  }
  out->target = e["target"].as_string();
  out->value = e["value"].as_number();
  return true;
}
}  // namespace

FaultPlan FaultPlan::parse(const telemetry::Json& doc, std::string* error) {
  FaultPlan plan;
  const telemetry::Json* events_json = nullptr;
  if (doc.is_array()) {
    events_json = &doc;
  } else if (doc.is_object()) {
    if (doc.contains("seed")) {
      plan.seed = static_cast<std::uint64_t>(doc["seed"].as_number());
    }
    if (doc.contains("route_convergence_ms")) {
      plan.route_convergence =
          ms_to_time(doc["route_convergence_ms"].as_number());
    }
    if (doc.contains("events")) events_json = &doc["events"];
  } else {
    if (error != nullptr) *error = "fault plan must be an object or array";
    return FaultPlan{};
  }
  if (events_json != nullptr) {
    if (!events_json->is_array()) {
      if (error != nullptr) *error = "'events' must be an array";
      return FaultPlan{};
    }
    for (const telemetry::Json& e : events_json->items()) {
      FaultEvent ev;
      if (!parse_event(e, &ev, error)) return FaultPlan{};
      plan.events.push_back(std::move(ev));
    }
  }
  return plan;
}

FaultPlan FaultPlan::parse_text(const std::string& text, std::string* error) {
  std::string parse_error;
  const telemetry::Json doc = telemetry::Json::parse(text, &parse_error);
  if (doc.is_null()) {
    if (error != nullptr) *error = "fault plan JSON: " + parse_error;
    return FaultPlan{};
  }
  return parse(doc, error);
}

FaultPlan FaultPlan::from_env(std::string* error) {
  const char* spec = std::getenv("CLOVE_FAULT_PLAN");
  if (spec == nullptr || *spec == '\0') return FaultPlan{};
  std::string text(spec);
  const std::size_t first = text.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return FaultPlan{};
  if (text[first] != '[' && text[first] != '{') {
    // Treat as a file path; an optional leading '@' (the conventional
    // "here's a file" marker) is stripped.
    std::string path = text.substr(text[first] == '@' ? first + 1 : first);
    std::ifstream in(path);
    if (!in) {
      if (error != nullptr) {
        *error = "CLOVE_FAULT_PLAN: cannot open file '" + path + "'";
      }
      return FaultPlan{};
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  return parse_text(text, error);
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

FaultInjector::FaultInjector(net::Topology& topo, FaultPlan plan)
    : topo_(topo), plan_(std::move(plan)) {}

void FaultInjector::arm() {
  sim::Simulator& sim = topo_.simulator();
  net::ShardDomain* dom = topo_.shard_domain();
  for (const FaultEvent& ev : plan_.events) {
    const sim::Time at = ev.at > sim.now() ? ev.at : sim.now();
    if (dom != nullptr) {
      // A fault touches links/switches across shards, so it must run at a
      // window boundary with every shard quiesced. Registration order
      // preserves the serial same-timestamp tiebreak.
      dom->at_global(at, [this, &ev] { apply(ev); });
    } else {
      sim.schedule_at(at, [this, &ev] { apply(ev); });
    }
  }
}

net::Link* FaultInjector::resolve_link(const std::string& target) {
  // "NAME#k" selects the k-th creation-order link named NAME (parallel
  // leaf-spine links share a name).
  std::string name = target;
  int index = 0;
  if (const std::size_t hash = target.rfind('#');
      hash != std::string::npos) {
    name = target.substr(0, hash);
    index = std::atoi(target.c_str() + hash + 1);
  }
  int seen = 0;
  for (const auto& link : topo_.links()) {
    if (link->name() != name) continue;
    if (seen++ == index) return link.get();
  }
  return nullptr;
}

void FaultInjector::apply(const FaultEvent& ev) {
  const sim::Time now = topo_.simulator().now();
  bool ok = true;
  switch (ev.kind) {
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp: {
      net::Link* l = resolve_link(ev.target);
      if (l == nullptr) {
        ok = false;
        break;
      }
      apply_connection(l, ev.kind == FaultKind::kLinkDown);
      break;
    }
    case FaultKind::kLinkDegrade:
    case FaultKind::kLinkDrop: {
      net::Link* l = resolve_link(ev.target);
      if (l == nullptr) {
        ok = false;
        break;
      }
      if (ev.kind == FaultKind::kLinkDegrade) {
        l->set_capacity_factor(ev.value <= 0.0 ? 1.0 : ev.value);
      } else {
        l->set_fault_drop(ev.value, drop_seed(l->id()));
      }
      break;
    }
    case FaultKind::kSwitchDown:
    case FaultKind::kSwitchUp:
      ok = apply_switch(ev, ev.kind == FaultKind::kSwitchDown);
      break;
    case FaultKind::kFeedbackLoss:
    case FaultKind::kFeedbackDelay:
      ok = apply_feedback(ev);
      break;
  }
  if (!ok) {
    ++stats_.events_failed;
    CLOVE_WARN(now, "fault", "unresolved fault target \'%s\' (%s)",
               ev.target.c_str(), fault_kind_name(ev.kind));
    return;
  }
  ++stats_.events_applied;
  if (telemetry::tracing()) {
    telemetry::trace(telemetry::Category::kFault, now, ev.target,
                     std::string("fault.") + fault_kind_name(ev.kind), "",
                     ev.value);
  }
}

void FaultInjector::toggle_link(net::Link* l, bool down) {
  if (l == nullptr) return;
  if (net::ShardDomain* dom = topo_.shard_domain()) {
    const int shard = dom->shard_of_sim(&l->simulator());
    if (telemetry::Scope* sc = dom->scope(shard)) {
      telemetry::ScopeGuard guard(*sc);
      down ? l->down() : l->up();
      return;
    }
  }
  if (down) {
    l->down();
  } else {
    l->up();
  }
}

void FaultInjector::apply_connection(net::Link* fwd, bool down) {
  toggle_link(fwd, down);
  toggle_link(topo_.reverse_of(fwd), down);
  schedule_convergence();
}

bool FaultInjector::apply_switch(const FaultEvent& ev, bool down) {
  // Blackout every connection adjacent to the named switch: links() holds
  // the incoming direction of each connection once, so toggling each
  // incoming link plus its reverse covers the full adjacency exactly once.
  net::Switch* sw = nullptr;
  for (net::Switch* s : topo_.switches()) {
    if (s->name() == ev.target) {
      sw = s;
      break;
    }
  }
  if (sw == nullptr) return false;
  bool touched = false;
  for (const auto& link : topo_.links()) {
    if (link->dst() != sw) continue;
    touched = true;
    toggle_link(link.get(), down);
    toggle_link(topo_.reverse_of(link.get()), down);
  }
  if (touched) schedule_convergence();
  return true;
}

bool FaultInjector::apply_feedback(const FaultEvent& ev) {
  int matched = 0;
  for (net::Node* host : topo_.hosts()) {
    auto* hyp = dynamic_cast<overlay::Hypervisor*>(host);
    if (hyp == nullptr) continue;
    if (ev.target != "*" && hyp->name() != ev.target) continue;
    ++matched;
    if (ev.kind == FaultKind::kFeedbackLoss) {
      hyp->set_feedback_loss(ev.value, plan_.seed ^ (hyp->id() * 0x9e37ULL));
    } else {
      hyp->set_feedback_delay(ms_to_time(ev.value));
    }
  }
  return matched > 0;
}

void FaultInjector::schedule_convergence() {
  if (plan_.route_convergence <= 0) {
    topo_.compute_routes();
    ++stats_.route_recomputes;
    return;
  }
  auto recompute = [this] {
    topo_.compute_routes();
    ++stats_.route_recomputes;
  };
  if (net::ShardDomain* dom = topo_.shard_domain()) {
    // Route recomputes read and write switch tables in every shard, so they
    // are global actions too. We run at a barrier here with clocks aligned,
    // so now() + convergence is the same deadline the serial path computes.
    dom->at_global(topo_.simulator().now() + plan_.route_convergence,
                   std::move(recompute));
  } else {
    topo_.simulator().schedule_in(plan_.route_convergence, std::move(recompute));
  }
}

}  // namespace clove::fault
