#include "ppe/tables.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "sim/random.hpp"

namespace flexsfp::ppe {
namespace {

TEST(ExactMatchTable, InsertLookupEraseCycle) {
  ExactMatchTable table("t", 1024, 32, 64);
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
