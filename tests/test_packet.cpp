// Tests for packet structures and hashing.

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace clove::net {
namespace {

TEST(FiveTuple, Equality) {
  FiveTuple a{1, 2, 10, 20, Proto::kTcp};
  FiveTuple b{1, 2, 10, 20, Proto::kTcp};
  EXPECT_EQ(a, b);
  b.src_port = 11;
  EXPECT_NE(a, b);
}

TEST(FiveTuple, Reversed) {
  FiveTuple a{1, 2, 10, 20, Proto::kTcp};
  FiveTuple r = a.reversed();
  EXPECT_EQ(r.src_ip, 2u);
  EXPECT_EQ(r.dst_ip, 1u);
  EXPECT_EQ(r.src_port, 20);
  EXPECT_EQ(r.dst_port, 10);
  EXPECT_EQ(r.reversed(), a);
}

TEST(FiveTuple, HashDistinguishesFields) {
  FiveTupleHash h;
  FiveTuple base{1, 2, 10, 20, Proto::kTcp};
  FiveTuple by_src = base;
  by_src.src_ip = 9;
  FiveTuple by_port = base;
  by_port.src_port = 9;
  FiveTuple by_proto = base;
  by_proto.proto = Proto::kStt;
  EXPECT_NE(h(base), h(by_src));
  EXPECT_NE(h(base), h(by_port));
  EXPECT_NE(h(base), h(by_proto));
}

TEST(Packet, WireTupleUsesOuterWhenEncapped) {
  auto p = make_packet();
  p->inner = FiveTuple{1, 2, 10, 20, Proto::kTcp};
  EXPECT_EQ(p->wire_tuple(), p->inner);
  p->encap.present = true;
  p->encap.tuple = FiveTuple{100, 200, 3000, 7471, Proto::kStt};
  EXPECT_EQ(p->wire_tuple(), p->encap.tuple);
  EXPECT_EQ(p->wire_src(), 100u);
  EXPECT_EQ(p->wire_dst(), 200u);
}

TEST(Packet, WireSizeIncludesHeaders) {
  auto p = make_packet();
  p->payload = 1460;
  EXPECT_EQ(p->wire_size(), 1460 + Packet::kHeaderBytes);
}

TEST(Packet, UniqueIds) {
  std::unordered_set<std::uint64_t> ids;
  for (int i = 0; i < 1000; ++i) ids.insert(make_packet()->uid);
  EXPECT_EQ(ids.size(), 1000u);
}

TEST(HashTuple, DeterministicAndSaltSensitive) {
  FiveTuple t{1, 2, 10, 20, Proto::kTcp};
  EXPECT_EQ(hash_tuple(t, 7), hash_tuple(t, 7));
  EXPECT_NE(hash_tuple(t, 7), hash_tuple(t, 8));
}

TEST(HashTuple, UniformAcrossPorts) {
  // ECMP quality check: hashing many source ports into 4 buckets should
  // spread roughly evenly — this is what path discovery relies on.
  int buckets[4] = {0, 0, 0, 0};
  for (int sp = 0; sp < 16384; ++sp) {
    FiveTuple t{1, 2, static_cast<std::uint16_t>(sp), 7471, Proto::kStt};
    ++buckets[hash_tuple(t, 42) % 4];
  }
  for (int b : buckets) {
    EXPECT_GT(b, 3600);
    EXPECT_LT(b, 4600);
  }
}

TEST(HashTuple, IndependentAcrossSalts) {
  // Two switches (salts) should make nearly independent decisions: the joint
  // distribution over (choice1, choice2) covers all combinations.
  std::set<std::pair<int, int>> combos;
  for (int sp = 0; sp < 1000; ++sp) {
    FiveTuple t{1, 2, static_cast<std::uint16_t>(sp), 7471, Proto::kStt};
    combos.emplace(hash_tuple(t, 1) % 4, hash_tuple(t, 2) % 2);
  }
  EXPECT_EQ(combos.size(), 8u);
}

TEST(IntStack, PushAndMax) {
  IntStack s;
  s.push(0.3f);
  s.push(0.7f);
  s.push(0.5f);
  EXPECT_EQ(s.count, 3);
  EXPECT_FLOAT_EQ(s.max_util(), 0.7f);
}

TEST(IntStack, CapsAtMaxHops) {
  IntStack s;
  for (int i = 0; i < 20; ++i) s.push(0.1f);
  EXPECT_EQ(s.count, IntStack::kMaxHops);
}

TEST(IntStack, EmptyMaxIsZero) {
  IntStack s;
  EXPECT_FLOAT_EQ(s.max_util(), 0.0f);
}

// ---------------------------------------------------------------------------
// Packet layout
// ---------------------------------------------------------------------------

// Offset of `field` inside `p`, and the byte just past it. Address
// arithmetic rather than offsetof: Packet mixes public and private members,
// so it is not standard-layout and GCC warns (-Winvalid-offsetof) on it.
template <typename T>
std::size_t offset_in(const Packet& p, const T& field) {
  return static_cast<std::size_t>(reinterpret_cast<const char*>(&field) -
                                  reinterpret_cast<const char*>(&p));
}
template <typename T>
std::size_t end_in(const Packet& p, const T& field) {
  return offset_in(p, field) + sizeof(T);
}

TEST(PacketLayout, ForwardingHotFieldsEndInFirstCacheLine) {
  // Everything a forwarding hop reads must sit in bytes [0, 64). The private
  // hash cache and path-record flags are declared between `ttl` and `encap`,
  // so `encap` starting inside the line covers them.
  const Packet p;
  EXPECT_LE(end_in(p, p.inner), 64u);
  EXPECT_LE(end_in(p, p.payload), 64u);
  EXPECT_LE(end_in(p, p.ttl), 64u);
  EXPECT_LT(offset_in(p, p.ttl), offset_in(p, p.encap));
  EXPECT_LE(end_in(p, p.encap.tuple), 64u);
  EXPECT_LE(end_in(p, p.encap.present), 64u);
  EXPECT_LE(end_in(p, p.encap.ecn), 64u);
}

TEST(PacketLayout, HeadersCarryNoAvoidablePadding) {
  EXPECT_EQ(sizeof(CloveFeedback), 24u);
  EXPECT_EQ(sizeof(EncapHeader), 56u);
  EXPECT_EQ(sizeof(ProbeInfo), 16u);
  EXPECT_EQ(sizeof(CongaFields), 12u);
}

// ---------------------------------------------------------------------------
// Path records (INT samples, hybrid trace) behind Packet's handle
// ---------------------------------------------------------------------------

TEST(PathRecord, AbsentUntilFirstUse) {
  Packet p;
  EXPECT_EQ(p.path_record(), nullptr);
  EXPECT_FALSE(p.int_enabled());
  EXPECT_FALSE(p.trace_active());
  p.enable_int().push(0.5f);
  ASSERT_NE(p.path_record(), nullptr);
  EXPECT_TRUE(p.int_enabled());
  EXPECT_FALSE(p.trace_active());
  PathRecord* rec = p.path_record();
  p.start_trace().push(9);
  EXPECT_EQ(p.path_record(), rec);  // one record holds both
  EXPECT_EQ(rec->int_stack.count, 1);
  EXPECT_EQ(rec->trace.count, 1);
  p.enable_int();  // restarting empties the stack, keeps the trace
  EXPECT_EQ(rec->int_stack.count, 0);
  EXPECT_EQ(rec->trace.count, 1);
}

TEST(PathRecord, CopyDeepCopiesRecord) {
  Packet a;
  a.enable_int().push(0.25f);
  a.start_trace().push(7);
  Packet b = a;
  ASSERT_NE(b.path_record(), nullptr);
  EXPECT_NE(b.path_record(), a.path_record());
  EXPECT_TRUE(b.int_enabled());
  EXPECT_TRUE(b.trace_active());
  EXPECT_FLOAT_EQ(b.path_record()->int_stack.max_util(), 0.25f);
  ASSERT_EQ(b.path_record()->trace.count, 1);
  EXPECT_EQ(b.path_record()->trace.links[0], 7u);
  b.path_record()->int_stack.push(0.9f);
  b.path_record()->trace.push(8);
  EXPECT_EQ(a.path_record()->int_stack.count, 1);  // source untouched
  EXPECT_EQ(a.path_record()->trace.count, 1);
}

TEST(PathRecord, CopyAssignReusesTargetRecord) {
  Packet src;
  src.enable_int().push(0.4f);
  Packet dst;
  dst.start_trace().push(3);
  PathRecord* kept = dst.path_record();
  dst = src;
  EXPECT_EQ(dst.path_record(), kept);  // written in place, not reallocated
  EXPECT_TRUE(dst.int_enabled());
  EXPECT_FALSE(dst.trace_active());
  EXPECT_EQ(kept->int_stack.count, 1);
  EXPECT_EQ(kept->trace.count, 0);

  const Packet bare;
  dst = bare;  // a record-less source clears the target's record
  EXPECT_EQ(dst.path_record(), kept);
  EXPECT_FALSE(dst.int_enabled());
  EXPECT_EQ(kept->int_stack.count, 0);
  EXPECT_EQ(kept->trace.count, 0);
}

// ---------------------------------------------------------------------------
// PacketPool
// ---------------------------------------------------------------------------

TEST(PacketPool, ReusesReleasedPackets) {
  sim::Simulator sim;
  auto& pool = PacketPool::of(sim);
  Packet* first;
  {
    auto p = make_packet(sim);
    first = p.get();
  }  // released to the pool
  EXPECT_EQ(pool.free_count(), 1u);
  auto q = make_packet(sim);
  EXPECT_EQ(q.get(), first);  // same storage, recycled
  EXPECT_EQ(pool.allocated(), 1u);
  EXPECT_EQ(pool.reused(), 1u);
}

TEST(PacketPool, RecycledPacketsAreFullyReset) {
  sim::Simulator sim;
  {
    auto p = make_packet(sim);
    p->payload = 1460;
    p->ttl = 3;
    p->encap.present = true;
    p->tcp.seq = 999;
    p->enable_int().push(0.7f);
    p->sent_at = 42;
  }
  auto q = make_packet(sim);
  EXPECT_EQ(q->payload, 0u);
  EXPECT_EQ(q->ttl, 64);
  EXPECT_FALSE(q->encap.present);
  EXPECT_EQ(q->tcp.seq, 0u);
  EXPECT_FALSE(q->int_enabled());
  ASSERT_NE(q->path_record(), nullptr);
  EXPECT_EQ(q->path_record()->int_stack.count, 0);
  EXPECT_EQ(q->sent_at, 0);
}

TEST(PacketPool, RecycledPacketCarriesNoStaleRecords) {
  sim::Simulator sim;
  auto& pool = PacketPool::of(sim);
  PathRecord* rec;
  {
    auto p = make_packet(sim);
    for (int i = 0; i < 3; ++i) p->enable_int().push(0.5f);
    p->start_trace().push(11);
    p->path_record()->trace.push(12);
    rec = p->path_record();
  }
  auto q = make_packet(sim);
  EXPECT_EQ(pool.allocated(), 1u);
  EXPECT_FALSE(q->int_enabled());
  EXPECT_FALSE(q->trace_active());
  EXPECT_EQ(q->path_record(), rec);  // kept, not freed
  EXPECT_EQ(rec->int_stack.count, 0);
  EXPECT_EQ(rec->trace.count, 0);
  EXPECT_FLOAT_EQ(q->enable_int().max_util(), 0.0f);
  EXPECT_EQ(q->start_trace().count, 0);
  EXPECT_EQ(q->path_record(), rec);  // re-enabling reuses it
}

TEST(PacketPool, UidsAreFreshAcrossReuse) {
  sim::Simulator sim;
  std::unordered_set<std::uint64_t> ids;
  for (int i = 0; i < 100; ++i) ids.insert(make_packet(sim)->uid);
  EXPECT_EQ(ids.size(), 100u);
}

TEST(PacketPool, UidSequenceIsPerSimulator) {
  // Per-pool counters make uid sequences independent of what other
  // simulations ran before or concurrently — the property that keeps results
  // bit-identical between serial and parallel sweeps.
  sim::Simulator a;
  sim::Simulator b;
  std::vector<std::uint64_t> ua;
  std::vector<std::uint64_t> ub;
  for (int i = 0; i < 5; ++i) {
    ua.push_back(make_packet(a)->uid);
    (void)make_packet(b);  // interleave extra traffic on b
    ub.push_back(make_packet(b)->uid);
  }
  EXPECT_EQ(ua, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(ub, (std::vector<std::uint64_t>{2, 4, 6, 8, 10}));
}

TEST(PacketPool, ReleasedRawPointerIsPlainDeletable) {
  // Tests and tools sometimes release() a PacketPtr and rewrap it with a
  // default-constructed deleter; pool packets are individually new'ed, so
  // that plain delete must stay valid (the packet just leaves the pool).
  sim::Simulator sim;
  auto p = make_packet(sim);
  PacketPtr rewrapped(p.release());  // default deleter: no pool
  rewrapped.reset();                 // plain delete — must not touch the pool
  EXPECT_EQ(PacketPool::of(sim).free_count(), 0u);
}

TEST(PacketPool, AttachesToSimulatorExtensionSlot) {
  sim::Simulator sim;
  EXPECT_EQ(sim.extension(), nullptr);
  auto& pool = PacketPool::of(sim);
  EXPECT_EQ(sim.extension(), &pool);
  EXPECT_EQ(&PacketPool::of(sim), &pool);  // idempotent
}

TEST(WireHash, SaltedHashComposesToHashTuple) {
  // The fast path splits ECMP hashing into a per-packet prehash plus a
  // per-switch salted finalize; the split must agree with the one-shot form
  // for every salt or switches would disagree about path choices.
  const FiveTuple t{3, 9, 4242, 80, Proto::kStt};
  for (std::uint64_t salt : {0ull, 1ull, 7ull, 0xC09Aull, ~0ull}) {
    EXPECT_EQ(hash_tuple(t, salt), salted_hash(tuple_prehash(t), salt));
  }
}

TEST(WireHash, LazilyCachedAndInvalidated) {
  Packet p;
  p.inner = FiveTuple{1, 2, 1000, 80, Proto::kTcp};
  EXPECT_FALSE(p.wire_hash_cached());
  const std::uint64_t h = p.wire_hash();
  EXPECT_TRUE(p.wire_hash_cached());
  EXPECT_EQ(h, tuple_prehash(p.inner));
  EXPECT_EQ(p.wire_hash(), h);  // stable while cached

  // A wire-tuple mutation without invalidation would serve the stale value —
  // this is exactly the bug invalidate_wire_hash() exists to prevent.
  p.inner.src_port = 1001;
  EXPECT_EQ(p.wire_hash(), h);  // stale: cache not yet invalidated
  p.invalidate_wire_hash();
  EXPECT_FALSE(p.wire_hash_cached());
  EXPECT_EQ(p.wire_hash(), tuple_prehash(p.inner));
  EXPECT_NE(p.wire_hash(), h);
}

TEST(WireHash, FollowsWireTupleAcrossEncapAndDecap) {
  Packet p;
  p.inner = FiveTuple{1, 2, 1000, 80, Proto::kTcp};
  const std::uint64_t inner_hash = p.wire_hash();

  // Encapsulation changes the wire tuple to the outer header (the
  // hypervisor's vm_send invalidates right after building it).
  p.encap.present = true;
  p.encap.tuple = FiveTuple{100, 200, 55555, 7471, Proto::kStt};
  p.invalidate_wire_hash();
  EXPECT_EQ(p.wire_hash(), tuple_prehash(p.encap.tuple));
  EXPECT_NE(p.wire_hash(), inner_hash);

  // Decap restores the inner tuple as the wire tuple (handle_data's site).
  p.encap = EncapHeader{};
  p.invalidate_wire_hash();
  EXPECT_EQ(p.wire_hash(), inner_hash);
}

TEST(WireHash, PoolRecycleClearsCache) {
  // A recycled packet is reconstructed in place; a surviving stale cache
  // would hash the previous flow's tuple for the new packet.
  sim::Simulator sim;
  auto p = make_packet(sim);
  p->inner = FiveTuple{1, 2, 3, 4, Proto::kTcp};
  (void)p->wire_hash();
  EXPECT_TRUE(p->wire_hash_cached());
  Packet* raw = p.get();
  p.reset();  // back to the pool
  auto q = make_packet(sim);
  ASSERT_EQ(q.get(), raw);  // LIFO reuse of the same storage
  EXPECT_FALSE(q->wire_hash_cached());
}

}  // namespace
}  // namespace clove::net
