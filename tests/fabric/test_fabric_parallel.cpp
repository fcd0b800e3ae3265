// The conservatively synchronized fabric engine: bit-identical merged
// results for any worker count, determinism under fault injection, and
// agreement with the single-simulation reference.
#include "fabric/fabric_testbed.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "sim/random.hpp"

namespace flexsfp::fabric {
namespace {

using namespace sim;  // time literals

Topology base_topology(std::size_t modules, std::uint64_t seed) {
  Topology topo;
  topo.modules = modules;
  topo.base_seed = seed;
  topo.traffic_prototype.rate = DataRate::gbps(3);
  topo.traffic_prototype.arrivals = ArrivalProcess::poisson;
  topo.traffic_prototype.sizes = SizeDistribution::imix;
  topo.traffic_prototype.duration = 40_us;
  return topo;
}

TEST(FabricParallel, ThreeModuleRingIsBitIdenticalForAnyWorkerCount) {
  FabricParallelTestbed bed(base_topology(3, 1));
  const auto oracle = bed.run(1);
  ASSERT_GT(oracle.ledger.sent, 0u);
  ASSERT_GT(oracle.rounds, 0u);
  EXPECT_TRUE(oracle.ledger.balanced());

  for (const unsigned workers : {2u, 4u}) {
    const auto run = bed.run(workers);
    // The whole merged telemetry spine — every counter of every world —
    // must be the same object the sequential oracle produced.
    EXPECT_EQ(run.metrics, oracle.metrics) << "workers=" << workers;
    EXPECT_EQ(run.events, oracle.events) << "workers=" << workers;
    EXPECT_EQ(run.rounds, oracle.rounds) << "workers=" << workers;
    ASSERT_EQ(run.modules.size(), oracle.modules.size());
    for (std::size_t i = 0; i < run.modules.size(); ++i) {
      EXPECT_EQ(run.modules[i].sent_packets, oracle.modules[i].sent_packets);
      EXPECT_EQ(run.modules[i].received_packets,
                oracle.modules[i].received_packets);
      EXPECT_EQ(run.modules[i].latency_p99_ns,
                oracle.modules[i].latency_p99_ns);
    }
  }
}

TEST(FabricParallel, PropertySweepRandomTopologiesWorkersAndFaultSeeds) {
  // Random topologies (module count, target map, rate, crosspoint depth,
  // faulted or not) × workers {1, 2, 3, 4}: merged snapshots, rounds and
  // events must always equal the sequential oracle's, and the loss ledger
  // must always balance — faults, incast overflow and shard boundaries
  // included. Three workers own the worlds unevenly (5 worlds: 2, 2, 1).
  Rng rng(20260808);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t modules = 2 + rng.uniform(0, 2);  // 2..4
    Topology topo = base_topology(modules, rng.next_u64());
    topo.traffic_prototype.rate =
        DataRate::gbps(static_cast<double>(2 + rng.uniform(0, 4)));
    topo.traffic_prototype.duration = 25_us;
    topo.crosspoint_capacity = std::size_t{4} << rng.uniform(0, 3);  // 4..32
    topo.targets.clear();
    for (std::size_t i = 0; i < modules; ++i) {
      topo.targets.push_back(rng.uniform(0, modules - 1));
    }
    if (trial % 2 == 0) {
      sim::FaultSpec faults;
      faults.drop_prob = 0.04;
      faults.duplicate_prob = 0.02;
      faults.reorder_prob = 0.02;
      faults.seed = rng.next_u64();
      topo.link_faults = faults;
    }

    FabricParallelTestbed bed(topo);
    const auto oracle = bed.run(1);
    ASSERT_GT(oracle.ledger.sent, 0u) << "trial " << trial;
    EXPECT_TRUE(oracle.ledger.balanced())
        << "trial " << trial << ": injected " << oracle.ledger.injected()
        << " accounted " << oracle.ledger.accounted();
    for (const unsigned workers : {2u, 3u, 4u}) {
      const auto run = bed.run(workers);
      EXPECT_EQ(run.metrics, oracle.metrics)
          << "trial " << trial << " workers " << workers;
      EXPECT_EQ(run.rounds, oracle.rounds)
          << "trial " << trial << " workers " << workers;
      EXPECT_EQ(run.events, oracle.events)
          << "trial " << trial << " workers " << workers;
      EXPECT_TRUE(run.ledger.balanced()) << "trial " << trial;
    }
  }
}

TEST(FabricParallel, RepeatedRunsAreDeterministic) {
  Topology topo = base_topology(3, 7);
  sim::FaultSpec faults;
  faults.drop_prob = 0.05;
  topo.link_faults = faults;
  FabricParallelTestbed bed(topo);
  const auto first = bed.run(2);
  const auto second = bed.run(2);
  EXPECT_EQ(first.metrics, second.metrics);
  EXPECT_EQ(first.rounds, second.rounds);
  EXPECT_EQ(first.events, second.events);
}

void expect_same_ledger(const FabricLedger& run, const FabricLedger& ref,
                        const std::string& where) {
  EXPECT_EQ(run.sent, ref.sent) << where;
  EXPECT_EQ(run.delivered, ref.delivered) << where;
  EXPECT_EQ(run.duplicated, ref.duplicated) << where;
  EXPECT_EQ(run.fault_dropped, ref.fault_dropped) << where;
  EXPECT_EQ(run.queue_drops, ref.queue_drops) << where;
  EXPECT_EQ(run.dark_drops, ref.dark_drops) << where;
  EXPECT_EQ(run.app_drops, ref.app_drops) << where;
  EXPECT_EQ(run.control_punts, ref.control_punts) << where;
  EXPECT_EQ(run.crosspoint_drops, ref.crosspoint_drops) << where;
  EXPECT_EQ(run.unrouted, ref.unrouted) << where;
}

/// A perfbench-style incast: 4 modules → module 0, shallow crosspoints,
/// lossy and duplicating links — every drop term the fabric has.
Topology faulted_incast() {
  Topology incast = base_topology(4, 42);
  incast.targets = {0, 0, 0, 0};
  incast.crosspoint_capacity = 16;
  incast.traffic_prototype.rate = DataRate::gbps(4);
  incast.traffic_prototype.sizes = SizeDistribution::uniform;
  incast.traffic_prototype.min_size = 64;
  incast.traffic_prototype.max_size = 1518;
  incast.traffic_prototype.duration = 100_us;
  sim::FaultSpec faults;
  faults.drop_prob = 0.02;
  faults.duplicate_prob = 0.01;
  faults.seed = 9;
  incast.link_faults = faults;
  return incast;
}

TEST(FabricParallel, AgreesWithTheSingleSimulationReference) {
  // Same Topology through both engines. Packet-id spaces and registry
  // structure differ (one sim vs a sim per world), so the comparison is at
  // the ledger level: identical traffic, identical fault decisions,
  // identical timing → every ledger term and every module's latency
  // percentiles identical, for any worker count; within the windowed engine
  // the merged snapshot, rounds and events equal its own run(1). Two
  // shapes: the unfaulted ring, and the faulted incast, whose 5 worlds
  // split unevenly over 3 workers.
  const std::vector<std::pair<const char*, Topology>> shapes = {
      {"ring", base_topology(3, 42)}, {"incast", faulted_incast()}};
  for (const auto& [shape, topo] : shapes) {
    FabricTestbed single(topo);
    const auto reference = single.run();
    ASSERT_TRUE(reference.ledger.balanced()) << shape;
    if (topo.link_faults) {
      ASSERT_GT(reference.ledger.fault_dropped, 0u) << shape;
      ASSERT_GT(reference.ledger.duplicated, 0u) << shape;
      ASSERT_GT(reference.ledger.crosspoint_drops, 0u) << shape;
    }
    FabricParallelTestbed windowed(topo);
    const auto oracle = windowed.run(1);
    for (const unsigned workers : {1u, 2u, 3u, 4u}) {
      const auto run = windowed.run(workers);
      const std::string where =
          std::string(shape) + " workers=" + std::to_string(workers);
      expect_same_ledger(run.ledger, reference.ledger, where);
      EXPECT_EQ(run.metrics, oracle.metrics) << where;
      EXPECT_EQ(run.rounds, oracle.rounds) << where;
      EXPECT_EQ(run.events, oracle.events) << where;
      ASSERT_EQ(run.modules.size(), reference.modules.size()) << where;
      for (std::size_t i = 0; i < run.modules.size(); ++i) {
        EXPECT_EQ(run.modules[i].sent_packets,
                  reference.modules[i].sent_packets) << where;
        EXPECT_EQ(run.modules[i].received_packets,
                  reference.modules[i].received_packets) << where;
        EXPECT_EQ(run.modules[i].latency_p50_ns,
                  reference.modules[i].latency_p50_ns) << where;
        EXPECT_EQ(run.modules[i].latency_p99_ns,
                  reference.modules[i].latency_p99_ns) << where;
      }
    }
  }
}

/// `name`'s value per world of a merged windowed-engine snapshot, indexed
/// by the {shard=<module>} label (the crossbar world's series are skipped).
std::vector<std::uint64_t> per_module(const obs::MetricSnapshot& metrics,
                                      std::string_view name,
                                      std::size_t modules) {
  std::vector<std::uint64_t> out(modules, 0);
  for (const auto& sample : metrics.samples()) {
    if (sample.name != name) continue;
    for (const auto& [key, value] : sample.labels) {
      if (key == "shard" && value != "xbar") {
        out.at(std::stoul(value)) += sample.value;
      }
    }
  }
  return out;
}

TEST(FabricParallel, FramesCrossWorldsWithBytesAndMetadataIntact) {
  // A frame crosses worlds as bytes plus metadata. Whatever the crossing
  // dropped or garbled would show at the far edge: delivered bytes prove the
  // payload length survived, latency percentiles the created time, and the
  // shell's egress-hint counter the user metadata the crossbar sets. Jumbo
  // frames of uniform 60–9,216 B make most sizes not a multiple of 8.
  Topology jumbo_ring = base_topology(3, 17);
  jumbo_ring.traffic_prototype.sizes = SizeDistribution::uniform;
  jumbo_ring.traffic_prototype.min_size = 60;
  jumbo_ring.traffic_prototype.max_size = 9216;
  jumbo_ring.traffic_prototype.duration = 300_us;
  const std::vector<std::pair<const char*, Topology>> shapes = {
      {"faulted incast", faulted_incast()}, {"jumbo ring", jumbo_ring}};
  for (const auto& [shape, topo] : shapes) {
    FabricTestbed single(topo);
    const auto reference = single.run();
    std::vector<std::uint64_t> bytes, hints;
    for (std::size_t i = 0; i < topo.modules; ++i) {
      bytes.push_back(single.rig(i).edge_sink->received().bytes());
      hints.push_back(single.module(i).shell().egress_hints_honored());
    }
    ASSERT_GT(reference.ledger.delivered, 0u) << shape;
    ASSERT_GT(hints.front(), 0u) << shape;  // module 0 receives in both
    FabricParallelTestbed windowed(topo);
    for (const unsigned workers : {1u, 2u, 3u, 4u}) {
      const auto run = windowed.run(workers);
      const std::string where =
          std::string(shape) + " workers=" + std::to_string(workers);
      EXPECT_EQ(per_module(run.metrics, "sink.received.bytes", topo.modules),
                bytes) << where;
      EXPECT_EQ(per_module(run.metrics, "shell.egress_hints", topo.modules),
                hints) << where;
      for (std::size_t i = 0; i < topo.modules; ++i) {
        EXPECT_EQ(run.modules[i].latency_p50_ns,
                  reference.modules[i].latency_p50_ns) << where;
        EXPECT_EQ(run.modules[i].latency_p99_ns,
                  reference.modules[i].latency_p99_ns) << where;
      }
    }
  }
}

TEST(FabricParallel, PullExchangeBeyondSixtyFourWorlds) {
  // 70 modules on the default ring plus the crossbar: 71 worlds, so mail
  // flows from and to worlds 64 and up. A sender set that silently dropped
  // them would leave those destinations' batches unpulled, and the ledger
  // would no longer match the single simulation's.
  Topology topo = base_topology(70, 11);
  topo.traffic_prototype.duration = 4_us;
  FabricTestbed single(topo);
  const auto reference = single.run();
  ASSERT_TRUE(reference.ledger.balanced());
  ASSERT_GT(reference.modules[69].sent_packets, 0u);
  ASSERT_GT(reference.modules[69].received_packets, 0u);

  FabricParallelTestbed windowed(topo);
  const auto oracle = windowed.run(1);
  expect_same_ledger(oracle.ledger, reference.ledger, "workers=1");
  for (std::size_t i = 64; i < 70; ++i) {
    EXPECT_EQ(oracle.modules[i].received_packets,
              reference.modules[i].received_packets) << "module " << i;
  }
  for (const unsigned workers : {2u, 4u}) {
    const auto run = windowed.run(workers);
    const std::string where = "workers=" + std::to_string(workers);
    EXPECT_EQ(run.metrics, oracle.metrics) << where;
    EXPECT_EQ(run.rounds, oracle.rounds) << where;
    expect_same_ledger(run.ledger, reference.ledger, where);
  }
}

TEST(FabricParallel, EveryWorldPoolIsEmptyAfterTheRun) {
  // A captured packet goes back to its source world's pool at capture, and
  // the destination rebuilds the frame in its own pool, so when the last
  // event has run no packet is left anywhere and no world may have outgrown
  // its pool. On the ring with 20 µs links a round is longer than a
  // module's transit, so the round that reads the last frame also delivers
  // it and ends the run: nothing may still hold that frame's source packet.
  Topology long_links = base_topology(3, 5);
  long_links.link_delay_ps = 20_us;
  const std::vector<std::pair<const char*, Topology>> shapes = {
      {"incast", faulted_incast()}, {"ring with 20 us links", long_links}};
  for (const auto& [shape, topo] : shapes) {
    FabricParallelTestbed bed(topo);
    for (const unsigned workers : {1u, 2u, 4u}) {
      const auto run = bed.run(workers);
      const std::string where =
          std::string(shape) + " workers=" + std::to_string(workers);
      ASSERT_GT(run.ledger.delivered, 0u) << where;
      std::size_t in_use = 0, heap_fallbacks = 0;
      for (const auto& sample : run.metrics.samples()) {
        if (sample.name == "pool.in_use") {
          ++in_use;
          EXPECT_EQ(sample.value, 0u) << sample.key() << " " << where;
        } else if (sample.name == "pool.heap_fallbacks") {
          ++heap_fallbacks;
          EXPECT_EQ(sample.value, 0u) << sample.key() << " " << where;
        }
      }
      EXPECT_EQ(in_use, topo.modules + 1) << "one per world, " << where;
      EXPECT_EQ(heap_fallbacks, topo.modules + 1) << where;
    }
  }
}

TEST(FabricParallel, SnapshotsCarryWorldLabels) {
  FabricParallelTestbed bed(base_topology(3, 3));
  const auto run = bed.run(2);
  // Per-world registries merge under {shard=<module>} / {shard=xbar}.
  bool saw_module0 = false, saw_xbar = false;
  for (const auto& sample : run.metrics.samples()) {
    for (const auto& [key, value] : sample.labels) {
      if (key == "shard" && value == "0") saw_module0 = true;
      if (key == "shard" && value == "xbar") saw_xbar = true;
    }
  }
  EXPECT_TRUE(saw_module0);
  EXPECT_TRUE(saw_xbar);
  EXPECT_GT(run.metrics.sum("fabric.xbar.forwarded.packets"), 0u);
}

TEST(FabricParallel, WorkersUsedNeverOversubscribesTheHardware) {
  FabricParallelTestbed bed(base_topology(2, 5));
  const auto run = bed.run(64);
  EXPECT_LE(run.workers_used,
            std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_TRUE(run.ledger.balanced());
}

}  // namespace
}  // namespace flexsfp::fabric
