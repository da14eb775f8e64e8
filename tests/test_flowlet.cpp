// Tests for flowlet detection (hypervisor-side and in-switch tables).

#include <gtest/gtest.h>

#include "net/switch_flowlet.hpp"
#include "overlay/flowlet.hpp"
#include "test_util.hpp"

namespace clove::overlay {
namespace {

using clove::testutil::tuple;
using sim::kMicrosecond;

TEST(FlowletTracker, FirstPacketStartsFlowlet) {
  FlowletTracker t(100 * kMicrosecond);
  auto r = t.touch(tuple(1, 2), 0);
  EXPECT_TRUE(r.new_flowlet);
  EXPECT_EQ(t.flowlets_started(), 1u);
}

TEST(FlowletTracker, PacketsWithinGapShareFlowlet) {
  FlowletTracker t(100 * kMicrosecond);
  t.touch(tuple(1, 2), 0).set_port(5555);
  auto r = t.touch(tuple(1, 2), 50 * kMicrosecond);
  EXPECT_FALSE(r.new_flowlet);
  EXPECT_EQ(r.port, 5555);
  // Gap measured from the *previous* packet, so a long train never splits
  // as long as consecutive gaps stay small.
  for (int i = 0; i < 10; ++i) {
    r = t.touch(tuple(1, 2), (60 + i * 90) * kMicrosecond);
    EXPECT_FALSE(r.new_flowlet) << i;
  }
}

TEST(FlowletTracker, GapCreatesNewFlowlet) {
  FlowletTracker t(100 * kMicrosecond);
  auto r1 = t.touch(tuple(1, 2), 0);
  auto r2 = t.touch(tuple(1, 2), 101 * kMicrosecond);
  EXPECT_TRUE(r2.new_flowlet);
  EXPECT_NE(r1.flowlet_id, r2.flowlet_id);
  EXPECT_EQ(t.flowlets_started(), 2u);
}

TEST(FlowletTracker, ExactGapBoundaryIsSameFlowlet) {
  FlowletTracker t(100 * kMicrosecond);
  t.touch(tuple(1, 2), 0);
  EXPECT_FALSE(t.touch(tuple(1, 2), 100 * kMicrosecond).new_flowlet);
}

TEST(FlowletTracker, FlowsAreIndependent) {
  FlowletTracker t(100 * kMicrosecond);
  t.touch(tuple(1, 2), 0);
  auto r = t.touch(tuple(1, 3), 10);
  EXPECT_TRUE(r.new_flowlet);
  EXPECT_EQ(t.size(), 2u);
}

TEST(FlowletTracker, PortStoredPerFlow) {
  FlowletTracker t(100 * kMicrosecond);
  t.touch(tuple(1, 2), 0).set_port(111);
  t.touch(tuple(1, 3), 0).set_port(222);
  EXPECT_EQ(t.touch(tuple(1, 2), 1).port, 111);
  EXPECT_EQ(t.touch(tuple(1, 3), 1).port, 222);
}

TEST(FlowletTracker, ExpireDropsIdleFlows) {
  FlowletTracker t(100 * kMicrosecond);
  t.touch(tuple(1, 2), 0);
  t.touch(tuple(1, 3), 900 * kMicrosecond);
  t.expire(1000 * kMicrosecond, 500 * kMicrosecond);
  EXPECT_EQ(t.size(), 1u);
}

TEST(FlowletTracker, GapConfigurable) {
  FlowletTracker t(10 * kMicrosecond);
  t.touch(tuple(1, 2), 0);
  EXPECT_TRUE(t.touch(tuple(1, 2), 50 * kMicrosecond).new_flowlet);
  t.set_gap(1000 * kMicrosecond);
  EXPECT_EQ(t.gap(), 1000 * kMicrosecond);
  EXPECT_FALSE(t.touch(tuple(1, 2), 200 * kMicrosecond).new_flowlet);
}

// ---------------------------------------------------------------------------
// In-switch variant
// ---------------------------------------------------------------------------

TEST(SwitchFlowletTable, NewAndExistingFlowlets) {
  net::SwitchFlowletTable t(100 * kMicrosecond);
  auto d1 = t.touch(42, 0);
  EXPECT_TRUE(d1.new_flowlet);
  t.set_value(42, 3);
  auto d2 = t.touch(42, 50 * kMicrosecond);
  EXPECT_FALSE(d2.new_flowlet);
  EXPECT_EQ(d2.value, 3u);
  auto d3 = t.touch(42, 500 * kMicrosecond);
  EXPECT_TRUE(d3.new_flowlet);
}

TEST(SwitchFlowletTable, KeysIndependent) {
  net::SwitchFlowletTable t(100 * kMicrosecond);
  (void)t.touch(1, 0);
  t.set_value(1, 10);
  (void)t.touch(2, 0);
  t.set_value(2, 20);
  EXPECT_EQ(t.touch(1, 1).value, 10u);
  EXPECT_EQ(t.touch(2, 1).value, 20u);
}

TEST(SwitchFlowletTable, ExpireHousekeeping) {
  net::SwitchFlowletTable t(100 * kMicrosecond);
  (void)t.touch(1, 0);
  (void)t.touch(2, 10'000 * kMicrosecond);
  t.expire(10'001 * kMicrosecond, 1000 * kMicrosecond);
  EXPECT_EQ(t.size(), 1u);
}

}  // namespace
}  // namespace clove::overlay
