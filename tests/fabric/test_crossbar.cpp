// The crosspoint-queued crossbar: routing, round-robin arbitration,
// per-crosspoint backpressure and the fabric.xbar.* telemetry.
#include "fabric/crossbar.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulation.hpp"

namespace flexsfp::fabric {
namespace {

net::PacketPtr frame_of(sim::Simulation& sim, std::size_t size,
                        std::uint64_t tag) {
  net::PacketPtr p = sim.packet_pool().make(net::Bytes(size, 0xAB));
  p->set_id(sim.next_packet_id());
  p->set_user_metadata(tag);
  return p;
}

struct Rig {
  explicit Rig(CrossbarConfig config,
               Crossbar::RouteFn route = [](const net::Packet& p) {
                 // Route on the low byte of the metadata word by default.
                 return static_cast<int>(p.user_metadata() & 0xFF);
               })
      : xbar(sim, config, std::move(route)) {
    delivered.resize(config.ports);
    for (std::size_t out = 0; out < config.ports; ++out) {
      xbar.set_output_handler(out, [this, out](net::PacketPtr p) {
        delivered[out].push_back(p->user_metadata());
      });
    }
  }

  sim::Simulation sim;
  Crossbar xbar;
  std::vector<std::vector<std::uint64_t>> delivered;
};

TEST(Crossbar, RejectsDegenerateConfigs) {
  sim::Simulation sim;
  auto route = [](const net::Packet&) { return 0; };
  CrossbarConfig zero_ports;
  zero_ports.ports = 0;
  EXPECT_THROW(Crossbar(sim, zero_ports, route), std::invalid_argument);
  CrossbarConfig zero_capacity;
  zero_capacity.crosspoint_capacity = 0;
  EXPECT_THROW(Crossbar(sim, zero_capacity, route), std::invalid_argument);
  EXPECT_THROW(Crossbar(sim, CrossbarConfig{}, nullptr),
               std::invalid_argument);
}

TEST(Crossbar, RoutesToTheOutputTheRouteFunctionPicks) {
  CrossbarConfig config;
  config.ports = 3;
  Rig rig(config);
  rig.xbar.ingress(0, frame_of(rig.sim, 64, 2));
  rig.xbar.ingress(1, frame_of(rig.sim, 64, 0));
  rig.sim.run();
  EXPECT_EQ(rig.delivered[2].size(), 1u);
  EXPECT_EQ(rig.delivered[0].size(), 1u);
  EXPECT_TRUE(rig.delivered[1].empty());
  EXPECT_EQ(rig.xbar.enqueued(), 2u);
  EXPECT_EQ(rig.xbar.forwarded_packets(2), 1u);
}

TEST(Crossbar, CountsUnroutableFramesInsteadOfBlackHoling) {
  CrossbarConfig config;
  config.ports = 2;
  Rig rig(config, [](const net::Packet&) { return -1; });
  rig.xbar.ingress(0, frame_of(rig.sim, 64, 0));
  rig.xbar.ingress(1, frame_of(rig.sim, 64, 0));
  rig.sim.run();
  EXPECT_EQ(rig.xbar.unrouted(), 2u);
  EXPECT_EQ(rig.xbar.enqueued(), 0u);
  EXPECT_TRUE(rig.delivered[0].empty());
  // Out-of-range is unroutable too, not UB.
  Rig big(config, [](const net::Packet&) { return 99; });
  big.xbar.ingress(0, frame_of(big.sim, 64, 0));
  big.sim.run();
  EXPECT_EQ(big.xbar.unrouted(), 1u);
}

TEST(Crossbar, OutputSerializesAtPortRate) {
  CrossbarConfig config;
  config.ports = 2;
  config.port_rate = sim::DataRate::gbps(10);
  Rig rig(config);
  // 64 B frame = 88 B on the wire = 70.4 ns at 10 Gb/s.
  const sim::TimePs wire_time = config.port_rate.serialization_time(64 + 24);
  rig.xbar.ingress(0, frame_of(rig.sim, 64, 1));
  rig.xbar.ingress(0, frame_of(rig.sim, 64, 1));
  rig.sim.run();
  EXPECT_EQ(rig.delivered[1].size(), 2u);
  // Two back-to-back frames: the second waits for the first transmitter.
  EXPECT_EQ(rig.sim.now(), 2 * wire_time);
  EXPECT_EQ(rig.xbar.forwarded_bytes(1), 128u);
}

TEST(Crossbar, RoundRobinSharesAnOutputAcrossBackloggedInputs) {
  CrossbarConfig config;
  config.ports = 3;
  Rig rig(config);
  // Three inputs, four frames each, all contending for output 0. Tag the
  // metadata with the input index (<< 8 keeps the route byte 0).
  for (int burst = 0; burst < 4; ++burst) {
    for (std::size_t in = 0; in < 3; ++in) {
      rig.xbar.ingress(in, frame_of(rig.sim, 64, std::uint64_t(in) << 8));
    }
  }
  rig.sim.run();
  ASSERT_EQ(rig.delivered[0].size(), 12u);
  // The first frame wins immediately (queue was empty); after that the
  // grant rotates: no input may be served twice before the others once.
  for (std::size_t i = 3; i + 2 < 12; i += 3) {
    const std::uint64_t a = rig.delivered[0][i];
    const std::uint64_t b = rig.delivered[0][i + 1];
    const std::uint64_t c = rig.delivered[0][i + 2];
    EXPECT_NE(a, b);
    EXPECT_NE(b, c);
    EXPECT_NE(a, c);
  }
}

TEST(Crossbar, CrosspointOverflowDropsAndCountsPerCrosspoint) {
  CrossbarConfig config;
  config.ports = 2;
  config.crosspoint_capacity = 4;
  Rig rig(config);
  // 10 frames into crosspoint (0,1): one goes straight to the transmitter,
  // 4 buffer, the rest exceed the crosspoint and must be counted there.
  for (int i = 0; i < 10; ++i) {
    rig.xbar.ingress(0, frame_of(rig.sim, 1518, 1));
  }
  EXPECT_EQ(rig.xbar.crosspoint_high_watermark(0, 1), 4u);
  EXPECT_EQ(rig.xbar.crosspoint_depth(0, 1), 4u);
  EXPECT_EQ(rig.xbar.crosspoint_drops(), 5u);
  // A different crosspoint of the same output is unaffected (no HOL
  // coupling between inputs).
  rig.xbar.ingress(1, frame_of(rig.sim, 64, 1));
  EXPECT_EQ(rig.xbar.crosspoint_depth(1, 1), 1u);
  rig.sim.run();
  EXPECT_EQ(rig.delivered[1].size(), 6u);
  // Ledger: enqueued = delivered, drops accounted per crosspoint.
  EXPECT_EQ(rig.xbar.enqueued(), 6u);
  const auto snapshot = rig.sim.metrics().snapshot();
  EXPECT_EQ(snapshot.sum("fabric.xbar.crosspoint_drops"), 5u);
  EXPECT_EQ(snapshot.sum("fabric.xbar.crosspoint_hwm"), 5u);  // 4 + 1
}

TEST(Crossbar, PerOutputByteAndPacketSeriesCarryLabels) {
  CrossbarConfig config;
  config.ports = 2;
  Rig rig(config);
  rig.xbar.ingress(0, frame_of(rig.sim, 100, 1));
  rig.sim.run();
  const auto snapshot = rig.sim.metrics().snapshot();
  const std::string name = rig.xbar.name();
  EXPECT_EQ(snapshot.value("fabric.xbar.forwarded.packets{out=1,xbar=" + name +
                           "}"),
            1u);
  EXPECT_EQ(
      snapshot.value("fabric.xbar.forwarded.bytes{out=1,xbar=" + name + "}"),
      100u);
  EXPECT_EQ(snapshot.sum("fabric.xbar.enqueued"), 1u);
}

}  // namespace
}  // namespace flexsfp::fabric
