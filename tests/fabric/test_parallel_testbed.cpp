#include "fabric/parallel_testbed.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>

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

TEST(ParallelTestbed, ParallelEqualsSequentialOracleAcrossSeeds) {
  for (const auto& [seed, workers] :
       {std::pair{1ull, 4u}, std::pair{7ull, 4u}, std::pair{20260806ull, 4u},
        std::pair{1ull, 2u}, std::pair{7ull, 2u}}) {
    ParallelTestbed parallel_bed(two_way_config(seed, 4), nat_factory());
    const auto parallel = parallel_bed.run(workers);
    const auto sequential = parallel_bed.run(1);

    ASSERT_GT(parallel.metrics.sum("gen.emitted.packets"), 0u)
        << "seed " << seed << " workers " << workers;
    // Sent/received packets and bytes, every drop class and every app
    // counter are series of the merged snapshot, so one equality covers
    // them all; latency and events are the two plain fields beside it.
    // Latency equality is exact, mean included: shards merge in shard
    // order in both modes, so even the floating-point sum is bit-identical.
    EXPECT_EQ(parallel.metrics, sequential.metrics)
        << "seed " << seed << " workers " << workers;
    EXPECT_EQ(parallel.latency, sequential.latency);
    EXPECT_EQ(parallel.events, sequential.events);

    ASSERT_EQ(parallel.shards.size(), sequential.shards.size());
    for (std::size_t i = 0; i < parallel.shards.size(); ++i) {
      const auto& p = parallel.shards[i];
      const auto& s = sequential.shards[i];
      EXPECT_EQ(p.metrics, s.metrics);
      EXPECT_EQ(p.latency, s.latency);
      EXPECT_EQ(p.events, s.events);
      EXPECT_EQ(p.flight, s.flight);
    }
  }
}

TEST(ParallelTestbed, RepeatedParallelRunsAreDeterministic) {
  ParallelTestbed bed(two_way_config(3, 3), nat_factory());
  const auto first = bed.run(3);
  const auto second = bed.run(3);
  EXPECT_EQ(first.metrics, second.metrics);
  EXPECT_EQ(first.latency, second.latency);
  EXPECT_EQ(first.events, second.events);
}

TEST(ParallelTestbed, MergedSnapshotCarriesShardLabeledSeries) {
  ParallelTestbed bed(two_way_config(11, 2), nat_factory());
  const auto run = bed.run(2);
  // Identical shard topologies stay distinct through the {shard=N} label,
  // and sum() folds the per-shard series back into the global count.
  std::uint64_t sent = 0, received = 0;
  for (const auto& shard : run.shards) {
    const std::string label = ",shard=" + std::to_string(shard.shard) + "}";
    const std::string edge = "gen.emitted.packets{gen=gen" + label;
    const std::string optical = "gen.emitted.packets{gen=gen1" + label;
    EXPECT_GT(shard.metrics.value(edge), 0u);
    EXPECT_GT(shard.metrics.value(optical), 0u);
    EXPECT_EQ(run.metrics.value(edge), shard.metrics.value(edge));
    EXPECT_EQ(run.metrics.value(optical), shard.metrics.value(optical));
    sent += shard.metrics.value(edge) + shard.metrics.value(optical);
    received += shard.metrics.sum("sink.received.packets");
  }
  EXPECT_EQ(run.metrics.sum("gen.emitted.packets"), sent);
  EXPECT_EQ(run.metrics.sum("sink.received.packets"), received);
  // Every delivered packet left a latency sample.
  EXPECT_EQ(run.latency.count(), received);
  // Flight recording is on by default and sampled ~1-in-64.
  std::uint64_t hops = 0;
  for (const auto& shard : run.shards) hops += shard.flight.size();
  EXPECT_GT(hops, 0u);
}

// The NAT's "missed" counter, app.counter.packets{bank=nat_stats,index=1},
// summed over every shard label the snapshot carries.
std::uint64_t nat_missed(const obs::MetricSnapshot& snap) {
  const auto has = [](const obs::MetricSample& sample, const char* key,
                      const char* value) {
    return std::find(sample.labels.begin(), sample.labels.end(),
                     obs::Labels::value_type{key, value}) !=
           sample.labels.end();
  };
  std::uint64_t total = 0;
  for (const auto& sample : snap.samples()) {
    if (sample.name == "app.counter.packets" &&
        has(sample, "bank", "nat_stats") && has(sample, "index", "1")) {
      total += sample.value;
    }
  }
  return total;
}

TEST(ParallelTestbed, CombinedIsTheSumOfShards) {
  ParallelTestbed bed(two_way_config(5, 4), nat_factory());
  const auto run = bed.run(2);

  const auto drops = [](const FabricLedger& ledger) {
    return ledger.queue_drops + ledger.app_drops + ledger.dark_drops;
  };
  std::uint64_t sent = 0, received = 0, dropped = 0, missed = 0;
  std::uint64_t latency_count = 0, events = 0;
  for (const auto& shard : run.shards) {
    const auto ledger = FabricLedger::from_snapshot(shard.metrics);
    sent += ledger.sent;
    received += ledger.delivered;
    dropped += drops(ledger);
    missed += nat_missed(shard.metrics);
    latency_count += shard.latency.count();
    events += shard.events;
  }
  const auto combined = FabricLedger::from_snapshot(run.metrics);
  EXPECT_GT(sent, 0u);
  EXPECT_EQ(combined.sent, sent);
  EXPECT_EQ(combined.delivered, received);
  EXPECT_EQ(drops(combined), dropped);
  EXPECT_TRUE(combined.balanced());
  // No mappings are installed, so every processed packet misses.
  EXPECT_GT(missed, 0u);
  EXPECT_EQ(nat_missed(run.metrics), missed);
  EXPECT_EQ(run.latency.count(), latency_count);
  EXPECT_EQ(run.events, events);
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

TEST(ParallelTestbed, WorkersUsedNeverOversubscribesTheHardware) {
  // More shards and more requested workers than the host has threads: the
  // run reports the threads it actually spawned, not the request.
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  auto config = two_way_config(5, hardware + 1);
  config.prototype.edge_traffic->duration = 5_us;
  config.prototype.optical_traffic->duration = 5_us;
  ParallelTestbed bed(config, nat_factory());
  const auto run = bed.run(hardware + 2);
  EXPECT_LE(run.workers_used, hardware);
  EXPECT_GE(run.workers_used, 1u);
  EXPECT_EQ(bed.run(1).workers_used, 1u);
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
