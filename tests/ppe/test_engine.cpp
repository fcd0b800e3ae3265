#include "ppe/engine.hpp"

#include <gtest/gtest.h>

#include "net/builder.hpp"

namespace flexsfp::ppe {
namespace {

using namespace sim;  // time literals

// Configurable test app: returns a fixed verdict, optionally mirrors.
class StubApp final : public PpeApp {
 public:
  explicit StubApp(Verdict verdict, bool mirror = false,
                   std::string name = "stub")
      : verdict_(verdict), mirror_(mirror), name_(std::move(name)) {}

  std::string name() const override { return name_; }
  Verdict process(PacketContext& ctx) override {
    ++processed;
    if (mirror_) ctx.request_mirror();
    return verdict_;
  }
  hw::ResourceUsage resource_usage(const hw::DatapathConfig&) const override {
    return {};
  }
  std::uint64_t pipeline_latency_cycles() const override { return 4; }
  std::vector<CounterSnapshot> counters() const override {
    return {{"stats", 0, std::uint64_t(processed), 0}};
  }

  int processed = 0;

 private:
  Verdict verdict_;
  bool mirror_;
  std::string name_;
};

net::PacketPtr packet_of(std::size_t size, Simulation& sim) {
  auto p = net::make_packet(net::Bytes(size, 0));
  p->set_ingress_time_ps(sim.now());
  return p;
}

TEST(Engine, ServiceTimeIsBusBeats) {
  Simulation sim;
  Engine engine(sim, std::make_unique<StubApp>(Verdict::forward),
                hw::DatapathConfig{});
  std::vector<TimePs> arrivals;
  engine.set_forward_handler([&](net::PacketPtr) {
    arrivals.push_back(sim.now());
  });
  engine.handle_packet(packet_of(64, sim));
  sim.run();
  // 64 B = 8 beats x 6.4 ns = 51.2 ns occupancy + 4 cycles drain = 76.8 ns.
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 8 * 6400 + 4 * 6400);
}

TEST(Engine, ThroughputBoundedByBusNotPipelineDepth) {
  Simulation sim;
  Engine engine(sim, std::make_unique<StubApp>(Verdict::forward),
                hw::DatapathConfig{});
  std::vector<TimePs> arrivals;
  engine.set_forward_handler([&](net::PacketPtr) {
    arrivals.push_back(sim.now());
  });
  engine.handle_packet(packet_of(64, sim));
  engine.handle_packet(packet_of(64, sim));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Packets drain 8 beats apart (occupancy), not 12 cycles apart.
  EXPECT_EQ(arrivals[1] - arrivals[0], 8 * 6400);
}

TEST(Engine, DropVerdictCountsAndSwallows) {
  Simulation sim;
  Engine engine(sim, std::make_unique<StubApp>(Verdict::drop),
                hw::DatapathConfig{});
  int forwarded = 0;
  engine.set_forward_handler([&](net::PacketPtr) { ++forwarded; });
  engine.handle_packet(packet_of(64, sim));
  sim.run();
  EXPECT_EQ(forwarded, 0);
  EXPECT_EQ(engine.dropped_by_app(), 1u);
  EXPECT_EQ(engine.forwarded(), 0u);
}

TEST(Engine, PuntGoesToControlHandler) {
  Simulation sim;
  Engine engine(sim, std::make_unique<StubApp>(Verdict::to_control_plane),
                hw::DatapathConfig{});
  int punted = 0;
  engine.set_control_handler([&](net::PacketPtr) { ++punted; });
  engine.handle_packet(packet_of(64, sim));
  sim.run();
  EXPECT_EQ(punted, 1);
  EXPECT_EQ(engine.punted(), 1u);
}

TEST(Engine, MirrorSendsCopyToControlAndForwards) {
  Simulation sim;
  Engine engine(sim,
                std::make_unique<StubApp>(Verdict::forward, /*mirror=*/true),
                hw::DatapathConfig{});
  int forwarded = 0;
  int mirrored = 0;
  net::PacketPtr forwarded_pkt;
  net::PacketPtr mirrored_pkt;
  engine.set_forward_handler([&](net::PacketPtr p) {
    ++forwarded;
    forwarded_pkt = std::move(p);
  });
  engine.set_control_handler([&](net::PacketPtr p) {
    ++mirrored;
    mirrored_pkt = std::move(p);
  });
  engine.handle_packet(packet_of(64, sim));
  sim.run();
  EXPECT_EQ(forwarded, 1);
  EXPECT_EQ(mirrored, 1);
  EXPECT_NE(forwarded_pkt.get(), mirrored_pkt.get());  // distinct copies
}

TEST(Engine, QueueOverflowDropsAtIngress) {
  Simulation sim;
  Engine engine(sim, std::make_unique<StubApp>(Verdict::forward),
                hw::DatapathConfig{}, /*queue_capacity=*/2);
  int forwarded = 0;
  engine.set_forward_handler([&](net::PacketPtr) { ++forwarded; });
  for (int i = 0; i < 10; ++i) engine.handle_packet(packet_of(1518, sim));
  sim.run();
  EXPECT_GT(engine.drops(), 0u);
  EXPECT_EQ(forwarded + int(engine.drops()), 10);
}

TEST(Engine, ReplaceAppSwapsProcessing) {
  Simulation sim;
  auto first = std::make_unique<StubApp>(Verdict::drop);
  Engine engine(sim, std::move(first), hw::DatapathConfig{});
  int forwarded = 0;
  engine.set_forward_handler([&](net::PacketPtr) { ++forwarded; });
  engine.handle_packet(packet_of(64, sim));
  sim.run();
  EXPECT_EQ(forwarded, 0);
  engine.replace_app(std::make_unique<StubApp>(Verdict::forward));
  engine.handle_packet(packet_of(64, sim));
  sim.run();
  EXPECT_EQ(forwarded, 1);
}

TEST(Engine, RegistryAttributesVerdictsAndAppCounters) {
  Simulation sim;
  Engine engine(sim, std::make_unique<StubApp>(Verdict::forward),
                hw::DatapathConfig{});
  engine.set_forward_handler([](net::PacketPtr) {});
  engine.handle_packet(packet_of(64, sim));
  sim.run();
  const auto snap = sim.metrics().snapshot();
  EXPECT_EQ(snap.value("engine.forwarded{app=stub,stage=ppe}"), 1u);
  EXPECT_EQ(snap.value("engine.app_drops{app=stub,stage=ppe}"), 0u);
  EXPECT_EQ(snap.value("server.served.packets{stage=ppe}"), 1u);
  // The app's CounterBank is read through the registry collector, not
  // mirrored into a second tally.
  EXPECT_EQ(
      snap.value("app.counter.packets{app=stub,bank=stats,index=0,stage=ppe}"),
      1u);
}

TEST(Engine, ReplaceAppMidStreamProcessesQueuedWithNewApp) {
  Simulation sim;
  Engine engine(sim, std::make_unique<StubApp>(Verdict::drop, false, "first"),
                hw::DatapathConfig{});
  int forwarded = 0;
  engine.set_forward_handler([&](net::PacketPtr) { ++forwarded; });
  engine.handle_packet(packet_of(64, sim));
  sim.run();
  EXPECT_EQ(engine.dropped_by_app(), 1u);
  // Queue three packets, then swap mid-stream before any of them is
  // served: all three must be processed (and counted) by the new app.
  for (int i = 0; i < 3; ++i) engine.handle_packet(packet_of(64, sim));
  engine.replace_app(
      std::make_unique<StubApp>(Verdict::forward, false, "second"));
  sim.run();
  EXPECT_EQ(forwarded, 3);
  const auto snap = sim.metrics().snapshot();
  EXPECT_EQ(snap.value("engine.forwarded{app=second,stage=ppe}"), 3u);
  EXPECT_EQ(snap.value("engine.forwarded{app=first,stage=ppe}"), 0u);
  EXPECT_EQ(snap.value("engine.app_drops{app=first,stage=ppe}"), 1u);
  // Accessors sum across every app this engine has run.
  EXPECT_EQ(engine.forwarded(), 3u);
  EXPECT_EQ(engine.dropped_by_app(), 1u);
}

TEST(Engine, ForwardLeavesAfterPipelineDrain) {
  Simulation sim;
  Engine engine(sim, std::make_unique<StubApp>(Verdict::forward),
                hw::DatapathConfig{});
  std::vector<TimePs> forwarded_at;
  engine.set_forward_handler(
      [&](net::PacketPtr) { forwarded_at.push_back(sim.now()); });
  engine.handle_packet(packet_of(64, sim));
  sim.run();
  // 8 bus beats of service plus the 4-cycle pipeline drain, 6.4 ns cycles.
  ASSERT_EQ(forwarded_at.size(), 1u);
  EXPECT_EQ(forwarded_at[0], 12 * 6400);
}

TEST(PacketContext, ParseIsLazyAndInvalidatable) {
  net::Packet packet{net::PacketBuilder()
                         .ethernet(net::MacAddress::from_u64(2),
                                   net::MacAddress::from_u64(1))
                         .ipv4(net::Ipv4Address::from_octets(1, 1, 1, 1),
                               net::Ipv4Address::from_octets(2, 2, 2, 2),
                               net::IpProto::udp)
                         .udp(1, 2)
                         .build()};
  PacketContext ctx(packet);
  EXPECT_EQ(ctx.parsed().outer.ipv4->src,
            net::Ipv4Address::from_octets(1, 1, 1, 1));
  // Edit + invalidate -> fresh parse.
  auto parsed = ctx.parsed();
  net::rewrite_ipv4_src(ctx.bytes(), parsed,
                        net::Ipv4Address::from_octets(9, 9, 9, 9));
  ctx.invalidate_parse();
  EXPECT_EQ(ctx.parsed().outer.ipv4->src,
            net::Ipv4Address::from_octets(9, 9, 9, 9));
}

TEST(VerdictToString, Names) {
  EXPECT_EQ(to_string(Verdict::forward), "forward");
  EXPECT_EQ(to_string(Verdict::drop), "drop");
  EXPECT_EQ(to_string(Verdict::to_control_plane), "to-control-plane");
}

}  // namespace
}  // namespace flexsfp::ppe
