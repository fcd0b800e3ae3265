// The single-simulation fabric engine: cable → switch → cable topologies,
// the zero-black-hole ledger and the egress-hint side band end to end.
#include "fabric/fabric_testbed.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace flexsfp::fabric {
namespace {

using namespace sim;  // time literals

Topology small_ring(std::size_t modules = 3) {
  Topology topo;
  topo.modules = modules;
  topo.traffic_prototype.rate = DataRate::gbps(2);
  topo.traffic_prototype.fixed_size = 256;
  topo.traffic_prototype.duration = 50_us;
  return topo;
}

TEST(Topology, ValidatesItsDescription) {
  Topology topo;
  topo.modules = 1;
  EXPECT_THROW(topo.validate(), std::invalid_argument);
  topo = Topology{};
  topo.targets = {1, 0, 1};  // wrong arity for 3 modules is fine, but...
  topo.modules = 2;          // ...size must match the module count
  EXPECT_THROW(topo.validate(), std::invalid_argument);
  topo = Topology{};
  topo.targets = {1, 2, 5};  // out of range
  EXPECT_THROW(topo.validate(), std::invalid_argument);
  topo = Topology{};
  topo.link_delay_ps = 0;  // zero lookahead would deadlock the sync
  EXPECT_THROW(topo.validate(), std::invalid_argument);
  topo = Topology{};
  topo.crosspoint_capacity = 0;
  EXPECT_THROW(topo.validate(), std::invalid_argument);
  // From the default 192.168.0.0, slice 16216 would start at 2^32 and wrap
  // to 0.0.0.0: 16216 modules is the most whose slices all fit.
  topo = Topology{};
  ASSERT_EQ(topo.traffic_prototype.dst_base.value(), 0xC0A8'0000u);
  topo.modules = 16'216;
  EXPECT_NO_THROW(topo.validate());
  topo.modules = 16'217;
  EXPECT_THROW(topo.validate(), std::invalid_argument);
  topo.modules = std::size_t{1} << 48;  // the slice shift itself would wrap
  EXPECT_THROW(topo.validate(), std::invalid_argument);
  topo = Topology{};
  topo.traffic_prototype.dst_base = net::Ipv4Address{0xFFFF'0000u};
  topo.modules = 2;  // the last /16 holds one slice only
  EXPECT_THROW(topo.validate(), std::invalid_argument);
  EXPECT_NO_THROW(Topology{}.validate());
}

TEST(Topology, RingIsTheDefaultTargetMap) {
  const Topology topo = small_ring(4);
  EXPECT_EQ(topo.target_of(0), 1u);
  EXPECT_EQ(topo.target_of(3), 0u);
  Topology pinned = small_ring(3);
  pinned.targets = {2, 2, 1};
  EXPECT_EQ(pinned.target_of(0), 2u);
  EXPECT_EQ(pinned.target_of(2), 1u);
}

TEST(Topology, TrafficDerivesPerModuleStreamsAimedAtTheTarget) {
  const Topology topo = small_ring(3);
  const auto t0 = topo.traffic_for(0);
  const auto t1 = topo.traffic_for(1);
  EXPECT_NE(t0.seed, t1.seed);
  EXPECT_NE(t0.seed, topo.traffic_prototype.seed);
  // Module 0 targets module 1: destinations live in slice 1.
  EXPECT_EQ(t0.dst_base.value(),
            topo.traffic_prototype.dst_base.value() + (1u << 16));
  // Source flow spaces stay disjoint per module.
  EXPECT_NE(t0.src_base.value(), t1.src_base.value());
}

TEST(Topology, RoutesByDestinationSlice) {
  const Topology topo = small_ring(3);
  // A generated frame from module 0 must route to module 1's slice.
  const auto spec = topo.traffic_for(0);
  sim::Simulation scratch;
  Sink sink(scratch, /*retain_last=*/4);
  TrafficGen gen(scratch, spec, sink);
  const auto tuple = gen.flow_tuple(1);
  EXPECT_EQ((tuple.dst.value() - topo.traffic_prototype.dst_base.value()) >>
                16,
            1u);
  gen.start();
  scratch.run();
  ASSERT_FALSE(sink.retained().empty());
  for (const auto& frame : sink.retained()) {
    EXPECT_EQ(topo.route(*frame), 1);
  }
  // Not parseable as IPv4 → unroutable, not UB.
  net::Packet garbage(net::Bytes(10, 0xFF));
  EXPECT_EQ(topo.route(garbage), -1);
}

TEST(FabricTestbed, RingDeliversEveryPacketAndBalancesTheLedger) {
  FabricTestbed bed(small_ring(3));
  const auto run = bed.run();

  ASSERT_EQ(run.modules.size(), 3u);
  std::uint64_t sent = 0, received = 0;
  for (const auto& m : run.modules) {
    EXPECT_GT(m.sent_packets, 0u);
    EXPECT_GT(m.latency_p50_ns, 0.0);
    sent += m.sent_packets;
    received += m.received_packets;
  }
  // 2 Gb/s through a 10 Gb/s fabric: nothing drops, everything crosses
  // cable → switch → cable.
  EXPECT_EQ(received, sent);
  EXPECT_EQ(run.ledger.sent, sent);
  EXPECT_EQ(run.ledger.delivered, sent);
  EXPECT_EQ(run.ledger.crosspoint_drops, 0u);
  EXPECT_EQ(run.ledger.unrouted, 0u);
  EXPECT_TRUE(run.ledger.balanced())
      << "injected " << run.ledger.injected() << " accounted "
      << run.ledger.accounted();
  // The crossbar saw every packet once.
  EXPECT_EQ(run.metrics.sum("fabric.xbar.enqueued"), sent);
  EXPECT_EQ(run.metrics.sum("fabric.xbar.forwarded.packets"), sent);
}

TEST(FabricTestbed, DownlinkFramesCarryHonoredEgressHints) {
  FabricTestbed bed(small_ring(3));
  const auto run = bed.run();
  // Every frame the fabric handed back to a module was pinned to the edge
  // interface; with zero loss the hint count equals the deliveries.
  EXPECT_EQ(run.metrics.sum("shell.egress_hints"), run.ledger.delivered);
}

TEST(FabricTestbed, IncastOverflowsCrosspointsButStaysAccounted) {
  Topology topo = small_ring(4);
  // All four modules blast module 0 at 6 Gb/s each: output 0 is 2.4x
  // oversubscribed, so crosspoints toward it must fill and drop.
  topo.targets = {0, 0, 0, 0};
  topo.traffic_prototype.rate = DataRate::gbps(6);
  topo.traffic_prototype.duration = 30_us;
  topo.crosspoint_capacity = 8;
  FabricTestbed bed(topo);
  const auto run = bed.run();
  EXPECT_GT(run.ledger.crosspoint_drops, 0u);
  EXPECT_GT(run.modules[0].received_packets, 0u);
  EXPECT_TRUE(run.ledger.balanced())
      << "injected " << run.ledger.injected() << " accounted "
      << run.ledger.accounted();
  // The congestion is attributable: per-crosspoint series toward output 0
  // carry the drops, other outputs are clean.
  EXPECT_EQ(run.metrics.sum("fabric.xbar.crosspoint_drops"),
            run.ledger.crosspoint_drops);
}

TEST(FabricTestbed, LinkFaultsAreLedgeredAcrossTheFabric) {
  Topology topo = small_ring(3);
  topo.traffic_prototype.arrivals = ArrivalProcess::poisson;
  sim::FaultSpec faults;
  faults.drop_prob = 0.05;
  faults.duplicate_prob = 0.03;
  faults.ber = 1e-6;
  faults.reorder_prob = 0.02;
  faults.flaps.push_back({10_us, 5_us});
  topo.link_faults = faults;
  FabricTestbed bed(topo);
  const auto run = bed.run();

  EXPECT_GT(run.ledger.fault_dropped, 0u);
  EXPECT_GT(run.ledger.duplicated, 0u);
  EXPECT_LT(run.ledger.delivered, run.ledger.injected());
  EXPECT_TRUE(run.ledger.balanced())
      << "injected " << run.ledger.injected() << " accounted "
      << run.ledger.accounted();
  // Each uplink got its own derived fault stream.
  EXPECT_NE(topo.link_fault_for(0).seed, topo.link_fault_for(1).seed);
  EXPECT_NE(topo.link_fault_for(0).seed, faults.seed);
}

TEST(FabricTestbed, RepeatedRunsAreBitIdentical) {
  const auto run_once = [] {
    FabricTestbed bed(small_ring(3));
    return bed.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.events, b.events);
}

}  // namespace
}  // namespace flexsfp::fabric
