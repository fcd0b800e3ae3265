#include "fabric/parallel_testbed.hpp"

#include <gtest/gtest.h>

#include "apps/nat.hpp"
#include "sim/random.hpp"

namespace flexsfp::fabric {
namespace {

using namespace sim;  // time literals

ParallelTestbedConfig two_way_config(std::uint64_t base_seed,
                                     std::size_t shards) {
  ParallelTestbedConfig config;
  config.shards = shards;
  config.base_seed = base_seed;
  TrafficSpec spec;
  spec.rate = DataRate::gbps(8);
  spec.arrivals = ArrivalProcess::poisson;
  spec.sizes = SizeDistribution::imix;
  spec.duration = 100_us;
  config.prototype.edge_traffic = spec;
  config.prototype.optical_traffic = spec;
  return config;
}

AppFactory nat_factory() {
  return [] { return std::make_unique<apps::StaticNat>(); };
}

void expect_stats_identical(const Stats& a, const Stats& b) {
  EXPECT_EQ(a.sent.packets(), b.sent.packets());
  EXPECT_EQ(a.sent.bytes(), b.sent.bytes());
  EXPECT_EQ(a.received.packets(), b.received.packets());
  EXPECT_EQ(a.received.bytes(), b.received.bytes());
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_EQ(a.latency.min(), b.latency.min());
  EXPECT_EQ(a.latency.max(), b.latency.max());
  EXPECT_EQ(a.latency.percentile(50), b.latency.percentile(50));
  EXPECT_EQ(a.latency.percentile(99), b.latency.percentile(99));
  // Exact double equality is intentional: shards merge in shard order in
  // both modes, so even floating-point sums must be bit-identical.
  EXPECT_EQ(a.latency.mean_ns(), b.latency.mean_ns());
  EXPECT_EQ(a.queue_drops, b.queue_drops);
  EXPECT_EQ(a.app_drops, b.app_drops);
  EXPECT_EQ(a.dark_drops, b.dark_drops);
  EXPECT_EQ(a.events, b.events);
}

TEST(ParallelTestbed, ParallelEqualsSequentialOracleAcrossSeeds) {
  for (const auto& [seed, workers] :
       {std::pair{1ull, 4u}, std::pair{7ull, 4u}, std::pair{20260806ull, 4u},
        std::pair{1ull, 2u}, std::pair{7ull, 2u}}) {
    auto config = two_way_config(seed, 4);
    config.workers = workers;
    ParallelTestbed parallel_bed(config, nat_factory());
    const auto parallel = parallel_bed.run();
    const auto sequential = parallel_bed.run_sequential();

    ASSERT_GT(parallel.combined.sent.packets(), 0u)
        << "seed " << seed << " workers " << workers;
    expect_stats_identical(parallel.combined, sequential.combined);
    EXPECT_EQ(parallel.combined_counters, sequential.combined_counters)
        << "seed " << seed << " workers " << workers;
    // The telemetry spine obeys the same oracle: merged registry snapshots
    // and sampled flight recordings are bit-identical.
    EXPECT_FALSE(parallel.combined_metrics.empty());
    EXPECT_EQ(parallel.combined_metrics, sequential.combined_metrics)
        << "seed " << seed << " workers " << workers;

    ASSERT_EQ(parallel.shards.size(), sequential.shards.size());
    for (std::size_t i = 0; i < parallel.shards.size(); ++i) {
      expect_stats_identical(parallel.shards[i].stats,
                             sequential.shards[i].stats);
      EXPECT_EQ(parallel.shards[i].result.edge_to_optical.latency_p99_ns,
                sequential.shards[i].result.edge_to_optical.latency_p99_ns);
      EXPECT_EQ(parallel.shards[i].app_counters,
                sequential.shards[i].app_counters);
      EXPECT_EQ(parallel.shards[i].metrics, sequential.shards[i].metrics);
      EXPECT_EQ(parallel.shards[i].flight, sequential.shards[i].flight);
    }
  }
}

TEST(ParallelTestbed, RepeatedParallelRunsAreDeterministic) {
  auto config = two_way_config(3, 3);
  config.workers = 3;
  ParallelTestbed bed(config, nat_factory());
  const auto first = bed.run();
  const auto second = bed.run();
  expect_stats_identical(first.combined, second.combined);
  EXPECT_EQ(first.combined_counters, second.combined_counters);
  EXPECT_EQ(first.combined_metrics, second.combined_metrics);
}

TEST(ParallelTestbed, MergedSnapshotCarriesShardLabeledSeries) {
  auto config = two_way_config(11, 2);
  config.workers = 2;
  ParallelTestbed bed(config, nat_factory());
  const auto run = bed.run();
  // Identical shard topologies stay distinct through the {shard=N} label,
  // and sum() folds the per-shard series back into the global count.
  EXPECT_EQ(run.combined_metrics.value("gen.emitted.packets{gen=gen,shard=0}"),
            run.shards[0].stats.sent.packets() -
                run.shards[0].result.optical_to_edge.sent_packets);
  EXPECT_EQ(run.combined_metrics.sum("gen.emitted.packets"),
            run.combined.sent.packets());
  EXPECT_EQ(run.combined_metrics.sum("sink.received.packets"),
            run.combined.received.packets());
  EXPECT_EQ(run.combined_metrics.sum("module.dark_drops"),
            run.combined.dark_drops);
  // Flight recording is on by default and sampled ~1-in-64.
  std::uint64_t hops = 0;
  for (const auto& shard : run.shards) hops += shard.flight.size();
  EXPECT_GT(hops, 0u);
}

TEST(ParallelTestbed, CombinedIsTheSumOfShards) {
  auto config = two_way_config(5, 4);
  config.workers = 2;
  ParallelTestbed bed(config, nat_factory());
  const auto run = bed.run();

  std::uint64_t sent = 0, received = 0, latency_count = 0, events = 0;
  for (const auto& shard : run.shards) {
    sent += shard.stats.sent.packets();
    received += shard.stats.received.packets();
    latency_count += shard.stats.latency.count();
    events += shard.stats.events;
  }
  EXPECT_EQ(run.combined.sent.packets(), sent);
  EXPECT_EQ(run.combined.received.packets(), received);
  EXPECT_EQ(run.combined.latency.count(), latency_count);
  EXPECT_EQ(run.combined.events, events);

  // Per-app counters accumulate too: the NAT's "missed" counter (index 1,
  // no mappings installed) must equal the packets every shard processed.
  std::uint64_t missed_total = 0;
  for (const auto& shard : run.shards) {
    for (const auto& snap : shard.app_counters) {
      if (snap.bank == "nat_stats" && snap.index == 1) {
        missed_total += snap.packets;
      }
    }
  }
  bool found = false;
  for (const auto& snap : run.combined_counters) {
    if (snap.bank == "nat_stats" && snap.index == 1) {
      EXPECT_EQ(snap.packets, missed_total);
      found = true;
    }
  }
  EXPECT_TRUE(found || missed_total == 0);
}

TEST(ParallelTestbed, ShardsUseHashedSeedStreamsAndDisjointFlowSpace) {
  TrafficSpec prototype;
  const std::uint64_t base = 9;
  const auto s0 = ParallelTestbed::shard_spec(prototype, base, 0, 0);
  const auto s1 = ParallelTestbed::shard_spec(prototype, base, 1, 0);
  const auto s1_opt = ParallelTestbed::shard_spec(prototype, base, 1, 1);

  // Regression for the correlated-seed bug: never base + shard.
  EXPECT_NE(s0.seed, base + 0);
  EXPECT_NE(s1.seed, base + 1);
  EXPECT_NE(s0.seed, s1.seed);
  EXPECT_NE(s1.seed, s1_opt.seed);  // directions are independent streams
  EXPECT_EQ(s0.seed, derive_stream_seed(base, 0));
  EXPECT_EQ(s1.seed, derive_stream_seed(base, 2));

  // Disjoint /16 flow-space slices, distinct MACs.
  EXPECT_EQ(s1.src_base.value(), s0.src_base.value() + (1u << 16));
  EXPECT_EQ(s1.dst_base.value(), s0.dst_base.value() + (1u << 16));
  EXPECT_NE(s0.src_mac, s1.src_mac);
}

TEST(ParallelTestbed, RejectsDegenerateConfigs) {
  ParallelTestbedConfig config;
  config.shards = 0;
  EXPECT_THROW(ParallelTestbed(config, nat_factory()), std::invalid_argument);
  config.shards = 1;
  EXPECT_THROW(ParallelTestbed(config, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace flexsfp::fabric
