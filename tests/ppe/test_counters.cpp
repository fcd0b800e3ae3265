#include "ppe/counters.hpp"

#include <gtest/gtest.h>

namespace flexsfp::ppe {
namespace {

TEST(CounterBank, AddAccumulatesPacketsAndBytes) {
  CounterBank bank("stats", 4);
  bank.add(0, 100);
  bank.add(0, 200);
  bank.add(3, 64);
  EXPECT_EQ(bank.packets(0), 2u);
  EXPECT_EQ(bank.bytes(0), 300u);
  EXPECT_EQ(bank.packets(3), 1u);
  EXPECT_EQ(bank.packets(1), 0u);
}

TEST(CounterBank, OutOfRangeAddThrows) {
  CounterBank bank("stats", 2);
  EXPECT_THROW(bank.add(2, 1), std::out_of_range);
}

TEST(CounterBank, OutOfRangeReadIsZero) {
  CounterBank bank("stats", 2);
  EXPECT_EQ(bank.packets(99), 0u);
  EXPECT_EQ(bank.bytes(99), 0u);
}

TEST(CounterBank, ClearResetsEverything) {
  CounterBank bank("stats", 2);
  bank.add(0, 10);
  bank.add(1, 20);
  bank.clear();
  EXPECT_EQ(bank.packets(0), 0u);
  EXPECT_EQ(bank.bytes(1), 0u);
}

TEST(CounterBank, SnapshotListsEverySlotInIndexOrder) {
  CounterBank bank("stats", 3);
  bank.add(2, 64);
  bank.add(0, 10);
  const std::vector<CounterSnapshot> expected = {
      {"stats", 0, 1, 10}, {"stats", 1, 0, 0}, {"stats", 2, 1, 64}};
  EXPECT_EQ(bank.snapshot(), expected);
}

TEST(CounterBank, ResourceUsageHasUsram) {
  CounterBank bank("stats", 64);
  EXPECT_GT(bank.resource_usage().usram_blocks, 0u);
}

}  // namespace
}  // namespace flexsfp::ppe
