#include "ppe/tables.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "net/flow.hpp"
#include "sim/random.hpp"

namespace flexsfp::ppe {
namespace {

TEST(ExactMatchTable, InsertLookupEraseCycle) {
  ExactMatchTable table("t", 1024, 32, 64);
  // Slot storage arrives with the first insert; a table nothing was ever
  // inserted into still answers every query.
  EXPECT_FALSE(table.lookup(42).has_value());
  EXPECT_FALSE(table.erase(42));
  table.clear();
  int visited = 0;
  table.for_each([&visited](std::uint64_t, std::uint64_t) { ++visited; });
  EXPECT_EQ(visited, 0);
  EXPECT_TRUE(table.insert(42, 100));
  EXPECT_EQ(table.lookup(42), 100u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.erase(42));
  EXPECT_FALSE(table.lookup(42).has_value());
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.erase(42));
}

TEST(ExactMatchTable, UpdateInPlace) {
  ExactMatchTable table("t", 64, 32, 64);
  EXPECT_TRUE(table.insert(1, 10));
  EXPECT_TRUE(table.insert(1, 20));
  EXPECT_EQ(table.lookup(1), 20u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(ExactMatchTable, CapacityEnforced) {
  ExactMatchTable table("t", 8, 32, 64, /*ways=*/8);
  for (std::uint64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(table.insert(k, k)) << k;
  }
  EXPECT_FALSE(table.insert(99, 99));
  EXPECT_EQ(table.size(), 8u);
  // Updates of existing keys still succeed at capacity.
  EXPECT_TRUE(table.insert(3, 33));
}

TEST(ExactMatchTable, BucketOverflowIsPossibleAndCounted) {
  // 1-way table: any two keys hashing to the same bucket collide.
  ExactMatchTable table("t", 1024, 32, 64, /*ways=*/1);
  sim::Rng rng(1);
  bool saw_overflow = false;
  for (int i = 0; i < 2000 && !saw_overflow; ++i) {
    if (!table.insert(rng.next_u64(), 1)) saw_overflow = true;
  }
  EXPECT_TRUE(saw_overflow);
  EXPECT_GT(table.bucket_overflows(), 0u);
}

TEST(ExactMatchTable, FourWayAchievesHighLoadFactor) {
  // The NAT geometry should comfortably absorb ~75% load without failures.
  ExactMatchTable table("t", 32768, 32, 64, /*ways=*/4);
  sim::Rng rng(2);
  std::size_t inserted = 0;
  for (std::size_t i = 0; i < 24576; ++i) {
    if (table.insert(rng.next_u64(), i)) ++inserted;
  }
  EXPECT_GT(double(inserted) / 24576.0, 0.98);
}

TEST(ExactMatchTable, GenerationBumpsOnMutationOnly) {
  ExactMatchTable table("t", 64, 32, 64);
  const auto g0 = table.generation();
  (void)table.lookup(1);
  EXPECT_EQ(table.generation(), g0);
  table.insert(1, 1);
  EXPECT_GT(table.generation(), g0);
}

TEST(ExactMatchTable, ForEachVisitsAllEntries) {
  ExactMatchTable table("t", 64, 32, 64);
  for (std::uint64_t k = 0; k < 10; ++k) table.insert(k, k * 2);
  std::set<std::uint64_t> seen;
  table.for_each([&seen](std::uint64_t key, std::uint64_t value) {
    EXPECT_EQ(value, key * 2);
    seen.insert(key);
  });
  EXPECT_EQ(seen.size(), 10u);
}

TEST(ExactMatchTable, ClearEmptiesTable) {
  ExactMatchTable table("t", 64, 32, 64);
  table.insert(1, 1);
  table.insert(2, 2);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.lookup(1).has_value());
}

// Bucket placement as the table computes it: fnv1a picks the first bucket,
// murmur3 the second, bumped by one when the two coincide.
struct Buckets {
  std::size_t first;
  std::size_t second;
};
Buckets buckets_of(std::uint64_t key, std::size_t bucket_count) {
  const std::size_t first = net::fnv1a_u64(key) & (bucket_count - 1);
  std::size_t second = net::murmur3_u64(key) & (bucket_count - 1);
  if (second == first) second = (second + 1) & (bucket_count - 1);
  return {first, second};
}

/// The first key >= `from` whose buckets satisfy `wanted`.
template <typename Pred>
std::uint64_t key_where(std::uint64_t from, std::size_t bucket_count,
                        Pred wanted) {
  for (std::uint64_t key = from;; ++key) {
    if (wanted(buckets_of(key, bucket_count))) return key;
  }
}

TEST(ExactMatchTable, CopyAnswersLikeTheOriginal) {
  ExactMatchTable original("t", 32768, 32, 64);
  sim::Rng rng(7);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = rng.next_u64();
    if (original.insert(key, key ^ 0x5555)) keys.push_back(key);
  }
  for (std::size_t i = 0; i < keys.size(); i += 3) original.erase(keys[i]);
  const ExactMatchTable copy = original;
  ExactMatchTable assigned("other", 16, 32, 64);
  assigned = original;
  const ExactMatchTable& assigned_view = assigned;
  for (const ExactMatchTable* table : {&copy, &assigned_view}) {
    EXPECT_EQ(table->size(), original.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(table->lookup(keys[i]), original.lookup(keys[i])) << i;
    }
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t absent = rng.next_u64();
      ASSERT_EQ(table->lookup(absent), original.lookup(absent));
    }
    std::vector<std::uint64_t> a, b;
    original.for_each([&a](std::uint64_t k, std::uint64_t) { a.push_back(k); });
    table->for_each([&b](std::uint64_t k, std::uint64_t) { b.push_back(k); });
    EXPECT_EQ(a, b);
  }
  // The copy is independent of the original.
  ExactMatchTable edited = original;
  ASSERT_TRUE(edited.erase(keys[1]));
  ASSERT_TRUE(edited.insert(keys[0], 1));
  EXPECT_EQ(original.lookup(keys[1]), keys[1] ^ 0x5555);
  EXPECT_FALSE(original.lookup(keys[0]).has_value());
}

TEST(ExactMatchTable, FindsAKeyInItsSecondBucketAfterTheFirstEmpties) {
  // 1-way, 8 buckets: `holder` takes bucket X, `key` shares first bucket X
  // and so lands in its second bucket.
  constexpr std::size_t n = 8;
  ExactMatchTable table("t", n, 32, 64, /*ways=*/1);
  const std::uint64_t holder = 1;
  const std::size_t x = buckets_of(holder, n).first;
  const std::uint64_t key = key_where(
      holder + 1, n, [x](Buckets b) { return b.first == x; });
  ASSERT_TRUE(table.insert(holder, 10));
  ASSERT_TRUE(table.insert(key, 20));
  EXPECT_EQ(table.lookup(key), 20u);
  ASSERT_TRUE(table.erase(holder));
  // The erased holder's stale key still sits in bucket X: a match on it
  // must be rejected by the valid bit, and the probe go on to the second
  // bucket.
  EXPECT_FALSE(table.lookup(holder).has_value());
  EXPECT_EQ(table.lookup(key), 20u);
  EXPECT_FALSE(table.erase(holder));
  ASSERT_TRUE(table.erase(key));
  EXPECT_FALSE(table.lookup(key).has_value());
  EXPECT_EQ(table.size(), 0u);
}

TEST(ExactMatchTable, LookupsSurviveACuckooRelocation) {
  // 1-way, 8 buckets. `a` sits in c's first bucket and has a free
  // alternate; `b` sits in c's second bucket. Inserting c finds both its
  // buckets full and moves `a` out of the way.
  constexpr std::size_t n = 8;
  ExactMatchTable table("t", n, 32, 64, /*ways=*/1);
  const std::uint64_t c = 1;
  const Buckets cb = buckets_of(c, n);
  const std::uint64_t a = key_where(c + 1, n, [cb](Buckets k) {
    return k.first == cb.first && k.second != cb.second;
  });
  const std::size_t a_alternate = buckets_of(a, n).second;
  const std::uint64_t b = key_where(c + 1, n, [&](Buckets k) {
    return k.first == cb.second && k.second != cb.first &&
           k.second != a_alternate;
  });
  ASSERT_TRUE(table.insert(a, 100));
  ASSERT_TRUE(table.insert(b, 200));
  ASSERT_TRUE(table.insert(c, 300));
  EXPECT_EQ(table.bucket_overflows(), 0u);
  EXPECT_EQ(table.lookup(a), 100u);
  EXPECT_EQ(table.lookup(b), 200u);
  EXPECT_EQ(table.lookup(c), 300u);
  EXPECT_EQ(table.size(), 3u);
  // The slot order shows the move: c now holds a's former slot and a its
  // alternate.
  std::vector<std::pair<std::size_t, std::uint64_t>> by_slot = {
      {a_alternate, a}, {cb.second, b}, {cb.first, c}};
  std::sort(by_slot.begin(), by_slot.end());
  std::vector<std::uint64_t> expected;
  for (const auto& [slot, key] : by_slot) expected.push_back(key);
  std::vector<std::uint64_t> after;
  table.for_each([&after](std::uint64_t k, std::uint64_t) {
    after.push_back(k);
  });
  EXPECT_EQ(after, expected);
  // Erasing through the relocated key still works.
  EXPECT_TRUE(table.erase(a));
  EXPECT_FALSE(table.lookup(a).has_value());
  EXPECT_EQ(table.lookup(c), 300u);
}

TEST(ExactMatchTable, ForEachVisitsSlotsInIndexOrder) {
  // 1-way, 16 buckets: keys with distinct first buckets each take their
  // first bucket, so slot index order is first-bucket order.
  constexpr std::size_t n = 16;
  ExactMatchTable table("t", n, 32, 64, /*ways=*/1);
  std::vector<std::pair<std::size_t, std::uint64_t>> placed;
  std::vector<bool> used(n, false);
  for (std::uint64_t key = 1000; placed.size() < 6; ++key) {
    const Buckets b = buckets_of(key, n);
    if (used[b.first] || used[b.second]) continue;
    used[b.first] = used[b.second] = true;  // no later key may collide
    placed.emplace_back(b.first, key);
  }
  // Insert in descending key order so insertion order is not slot order.
  for (auto it = placed.rbegin(); it != placed.rend(); ++it) {
    ASSERT_TRUE(table.insert(it->second, it->second + 1));
  }
  std::sort(placed.begin(), placed.end());
  std::vector<std::uint64_t> expected;
  for (const auto& [slot, key] : placed) expected.push_back(key);
  std::vector<std::uint64_t> visited;
  table.for_each([&visited](std::uint64_t k, std::uint64_t v) {
    EXPECT_EQ(v, k + 1);
    visited.push_back(k);
  });
  EXPECT_EQ(visited, expected);
}

TEST(ExactMatchTable, ResourceUsageMatchesGeometry) {
  ExactMatchTable table("t", 32768, 32, 64);
  EXPECT_EQ(table.resource_usage().lsram_blocks, 160u);
}

TEST(TernaryTable, PriorityOrderWins) {
  TernaryTable table("acl", 16, 104);
  // Low-priority catch-all, high-priority specific.
  ASSERT_TRUE(table.add_rule({{0, 0}, {0, 0}, /*prio=*/1, /*result=*/100}));
  ASSERT_TRUE(table.add_rule(
      {{0xabc, 0}, {0xfff, 0}, /*prio=*/10, /*result=*/200}));
  EXPECT_EQ(table.lookup({0xabc, 0}), 200u);
  EXPECT_EQ(table.lookup({0x123, 0}), 100u);
}

TEST(TernaryTable, EqualPriorityFirstAddedWins) {
  TernaryTable table("acl", 16, 104);
  ASSERT_TRUE(table.add_rule({{0, 0}, {0, 0}, 5, 1}));
  ASSERT_TRUE(table.add_rule({{0, 0}, {0, 0}, 5, 2}));
  EXPECT_EQ(table.lookup({7, 7}), 1u);
}

TEST(TernaryTable, MaskedBitsIgnored) {
  TernaryTable table("acl", 16, 104);
  // Match hi = 0xff00 with mask 0xff00: low byte is wildcard.
  ASSERT_TRUE(table.add_rule({{0xff00, 0}, {0xff00, 0}, 1, 7}));
  EXPECT_EQ(table.lookup({0xff42, 0x1234}), 7u);
  EXPECT_FALSE(table.lookup({0x0042, 0}).has_value());
}

TEST(TernaryTable, EraseByRuleId) {
  TernaryTable table("acl", 16, 104);
  const auto id = table.add_rule({{1, 0}, {0xff, 0}, 1, 1});
  ASSERT_TRUE(id);
  EXPECT_TRUE(table.erase_rule(*id));
  EXPECT_FALSE(table.erase_rule(*id));
  EXPECT_FALSE(table.lookup({1, 0}).has_value());
}

TEST(TernaryTable, CapacityEnforced) {
  TernaryTable table("acl", 2, 104);
  EXPECT_TRUE(table.add_rule({{1, 0}, {0xff, 0}, 1, 1}));
  EXPECT_TRUE(table.add_rule({{2, 0}, {0xff, 0}, 1, 2}));
  EXPECT_FALSE(table.add_rule({{3, 0}, {0xff, 0}, 1, 3}));
}

TEST(PortRangeExpansion, ExactPortIsOnePair) {
  const auto pairs = expand_port_range(80, 80);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].first, 80);
  EXPECT_EQ(pairs[0].second, 0xffff);
}

TEST(PortRangeExpansion, AlignedPowerOfTwoIsOnePair) {
  const auto pairs = expand_port_range(1024, 2047);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].first, 1024);
  EXPECT_EQ(pairs[0].second, 0xfc00);
}

TEST(PortRangeExpansion, FullRangeIsOneWildcard) {
  const auto pairs = expand_port_range(0, 65535);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].second, 0x0000);
}

TEST(PortRangeExpansion, CoversExactlyTheRange) {
  // Property: every port in [lo, hi] matches exactly one pair; ports
  // outside match none.
  const std::uint16_t lo = 1000;
  const std::uint16_t hi = 1999;
  const auto pairs = expand_port_range(lo, hi);
  EXPECT_LE(pairs.size(), 30u);
  for (std::uint32_t port = 0; port <= 65535; ++port) {
    int matches = 0;
    for (const auto& [value, mask] : pairs) {
      if ((port & mask) == (value & mask)) ++matches;
    }
    const bool inside = port >= lo && port <= hi;
    EXPECT_EQ(matches, inside ? 1 : 0) << "port " << port;
  }
}

TEST(PortRangeExpansion, EmptyWhenInverted) {
  EXPECT_TRUE(expand_port_range(100, 99).empty());
}

TEST(LpmTable, LongestPrefixWins) {
  LpmTable table("routes", 16);
  ASSERT_TRUE(table.insert(*net::Ipv4Prefix::parse("10.0.0.0/8"), 1));
  ASSERT_TRUE(table.insert(*net::Ipv4Prefix::parse("10.1.0.0/16"), 2));
  ASSERT_TRUE(table.insert(*net::Ipv4Prefix::parse("10.1.2.0/24"), 3));
  EXPECT_EQ(table.lookup(*net::Ipv4Address::parse("10.1.2.3")), 3u);
  EXPECT_EQ(table.lookup(*net::Ipv4Address::parse("10.1.9.9")), 2u);
  EXPECT_EQ(table.lookup(*net::Ipv4Address::parse("10.200.0.1")), 1u);
  EXPECT_FALSE(table.lookup(*net::Ipv4Address::parse("11.0.0.1")).has_value());
}

TEST(LpmTable, DefaultRouteMatchesEverything) {
  LpmTable table("routes", 4);
  ASSERT_TRUE(table.insert(*net::Ipv4Prefix::parse("0.0.0.0/0"), 99));
  EXPECT_EQ(table.lookup(*net::Ipv4Address::parse("8.8.8.8")), 99u);
}

TEST(LpmTable, UpdateAndEraseByPrefix) {
  LpmTable table("routes", 4);
  const auto prefix = *net::Ipv4Prefix::parse("192.168.0.0/16");
  ASSERT_TRUE(table.insert(prefix, 1));
  ASSERT_TRUE(table.insert(prefix, 2));  // update, not a second entry
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookup(*net::Ipv4Address::parse("192.168.1.1")), 2u);
  EXPECT_TRUE(table.erase(prefix));
  EXPECT_FALSE(table.lookup(*net::Ipv4Address::parse("192.168.1.1")).has_value());
}

TEST(LpmTable, CapacityEnforced) {
  LpmTable table("routes", 1);
  ASSERT_TRUE(table.insert(*net::Ipv4Prefix::parse("10.0.0.0/8"), 1));
  EXPECT_FALSE(table.insert(*net::Ipv4Prefix::parse("11.0.0.0/8"), 2));
}

TEST(LpmTable, LookupExactDistinguishesNestedPrefixes) {
  // 10.0.0.0/8 and 10.0.0.0/24 share an address but are distinct entries;
  // lookup() would return the /24 for 10.0.0.0, which is exactly why
  // control-plane code that means "this entry" must use lookup_exact().
  LpmTable table("routes", 16);
  ASSERT_TRUE(table.insert(*net::Ipv4Prefix::parse("10.0.0.0/8"), 1));
  ASSERT_TRUE(table.insert(*net::Ipv4Prefix::parse("10.0.0.0/24"), 2));
  EXPECT_EQ(table.lookup_exact(*net::Ipv4Prefix::parse("10.0.0.0/8")), 1u);
  EXPECT_EQ(table.lookup_exact(*net::Ipv4Prefix::parse("10.0.0.0/24")), 2u);
  EXPECT_FALSE(
      table.lookup_exact(*net::Ipv4Prefix::parse("10.0.0.0/16")).has_value());
  EXPECT_FALSE(
      table.lookup_exact(*net::Ipv4Prefix::parse("11.0.0.0/8")).has_value());
}

TEST(LpmTable, EraseOuterPrefixKeepsNestedInner) {
  LpmTable table("routes", 16);
  ASSERT_TRUE(table.insert(*net::Ipv4Prefix::parse("10.0.0.0/8"), 1));
  ASSERT_TRUE(table.insert(*net::Ipv4Prefix::parse("10.0.0.0/24"), 2));
  ASSERT_TRUE(table.erase(*net::Ipv4Prefix::parse("10.0.0.0/8")));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookup(*net::Ipv4Address::parse("10.0.0.5")), 2u);
  EXPECT_FALSE(table.lookup(*net::Ipv4Address::parse("10.1.0.1")).has_value());
  EXPECT_EQ(table.lookup_exact(*net::Ipv4Prefix::parse("10.0.0.0/24")), 2u);
  EXPECT_FALSE(
      table.lookup_exact(*net::Ipv4Prefix::parse("10.0.0.0/8")).has_value());
}

}  // namespace
}  // namespace flexsfp::ppe
