// Tests for telemetry scoping: the thread-local current scope, ScopeGuard
// nesting, the enabled() hot-path flag, and the hub facade's delegation.

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "telemetry/hub.hpp"
#include "telemetry/scope.hpp"

namespace clove::telemetry {
namespace {

TEST(Scope, GuardInstallsAndRestores) {
  Scope& before = current_scope();
  Scope inner;
  {
    ScopeGuard guard(inner);
    EXPECT_EQ(&current_scope(), &inner);
  }
  EXPECT_EQ(&current_scope(), &before);
}

TEST(Scope, GuardsNest) {
  Scope a;
  Scope b;
  ScopeGuard ga(a);
  {
    ScopeGuard gb(b);
    EXPECT_EQ(&current_scope(), &b);
  }
  EXPECT_EQ(&current_scope(), &a);
}

TEST(Scope, EnabledFlagTracksCurrentScope) {
  Scope on{ScopeSettings{true, TraceLog::kDefaultCapacity, kAllCategories}};
  Scope off;
  {
    ScopeGuard g(on);
    EXPECT_TRUE(enabled());
    {
      ScopeGuard g2(off);
      EXPECT_FALSE(enabled());
    }
    EXPECT_TRUE(enabled());
  }
}

TEST(Scope, SetEnabledUpdatesHotPathFlagWhenCurrent) {
  Scope s;
  ScopeGuard g(s);
  EXPECT_FALSE(enabled());
  s.set_enabled(true);
  EXPECT_TRUE(enabled());
  s.set_enabled(false);
  EXPECT_FALSE(enabled());
}

/// Settings for a scope whose flight recorder keeps every journey.
ScopeSettings flight_full() {
  ScopeSettings s;
  s.enabled = true;
  s.flight.mode = FlightMode::kFull;
  return s;
}

/// Count `n` ECN-masking audit violations in the current scope's recorder
/// (the clove.audit.ecn_mask metric), without the stderr report.
void flag_ecn_mask(int n) {
  flight()->set_fail_handler([](const char*, const std::string&) {});
  for (int i = 0; i < n; ++i) flight()->on_ecn_to_vm(false);
}

TEST(Scope, MetricsAreIsolatedPerScope) {
  // The clove.audit.* rows of a snapshot are read from the current scope's
  // flight recorder, so each scope must count only its own violations.
  Scope a{flight_full()};
  Scope b{flight_full()};
  {
    ScopeGuard g(a);
    flag_ecn_mask(3);
  }
  {
    ScopeGuard g(b);
    EXPECT_EQ(flight()->audit().ecn_mask, 0u)
        << "scopes must not share flight recorders";
  }
  {
    ScopeGuard g(a);
    EXPECT_EQ(flight()->audit().ecn_mask, 3u);
  }
}

TEST(Scope, SettingsRoundTripToChildScopes) {
  ScopeSettings s;
  s.enabled = true;
  s.trace_capacity = 128;
  s.trace_filter = static_cast<unsigned>(Category::kWeight);
  Scope parent{s};
  const ScopeSettings inherited = parent.settings();
  EXPECT_TRUE(inherited.enabled);
  EXPECT_EQ(inherited.trace_capacity, 128u);
  EXPECT_EQ(inherited.trace_filter, static_cast<unsigned>(Category::kWeight));
  Scope child{inherited};
  EXPECT_TRUE(child.is_enabled());
  EXPECT_EQ(child.trace().capacity(), 128u);
  EXPECT_EQ(child.trace().filter(), static_cast<unsigned>(Category::kWeight));
}

TEST(Scope, TraceRecordsIntoCurrentScopeOnly) {
  Scope a{ScopeSettings{true, 64, kAllCategories}};
  Scope b{ScopeSettings{true, 64, kAllCategories}};
  {
    ScopeGuard g(a);
    trace(Category::kWeight, 1, "node", "event.a");
  }
  {
    ScopeGuard g(b);
    trace(Category::kWeight, 2, "node", "event.b");
    EXPECT_EQ(hub().trace().size(), 1u);
    EXPECT_EQ(hub().trace().events()[0]->name, "event.b");
  }
  {
    ScopeGuard g(a);
    EXPECT_EQ(hub().trace().size(), 1u);
    EXPECT_EQ(hub().trace().events()[0]->name, "event.a");
  }
}

TEST(Scope, BeginRunClearsValuesButKeepsCells) {
  Scope s{flight_full()};
  ScopeGuard g(s);
  FlightRecorder* fr = flight();
  flag_ecn_mask(5);
  trace(Category::kWeight, 1, "node", "event");
  ASSERT_EQ(fr->audit().ecn_mask, 5u);
  ASSERT_EQ(s.trace().size(), 1u);
  s.begin_run();
  EXPECT_EQ(flight(), fr);  // same recorder, zeroed
  EXPECT_EQ(fr->audit().ecn_mask, 0u);
  EXPECT_EQ(s.trace().size(), 0u);
  flag_ecn_mask(1);  // the cached pointer still records into the scope
  EXPECT_EQ(s.flight_recorder()->audit().ecn_mask, 1u);
}

TEST(Scope, EachThreadFallsBackToTheProcessScope) {
  // Threads with no installed scope share the lazily created process scope.
  Scope* main_scope = &current_scope();
  Scope* seen = nullptr;
  std::thread t([&seen] { seen = &current_scope(); });
  t.join();
  EXPECT_EQ(seen, main_scope);
}

TEST(Scope, InstalledScopeIsThreadLocal) {
  // A scope installed on one thread must not leak to another.
  Scope inner;
  ScopeGuard g(inner);
  Scope* other_thread_scope = nullptr;
  std::thread t([&other_thread_scope] {
    other_thread_scope = &current_scope();
  });
  t.join();
  EXPECT_NE(other_thread_scope, &inner);
}

}  // namespace
}  // namespace clove::telemetry
