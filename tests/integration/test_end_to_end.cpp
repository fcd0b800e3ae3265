// Cross-module integration: full frames, full modules, full topologies.
#include <gtest/gtest.h>

#include "apps/chain.hpp"
#include "apps/nat.hpp"
#include "apps/rate_limiter.hpp"
#include "apps/sanitizer.hpp"
#include "apps/telemetry.hpp"
#include "apps/vlan.hpp"
#include "fabric/legacy_switch.hpp"
#include "fabric/testbed.hpp"

namespace flexsfp {
namespace {

using namespace sim;  // time literals

TEST(EndToEnd, NatTranslatesLiveTrafficThroughTheModule) {
  fabric::TestbedConfig config;
  fabric::TrafficSpec spec;
  spec.rate = sim::DataRate::gbps(2);
  spec.duration = 100_us;
  spec.flow_count = 8;
  config.edge_traffic = spec;

  auto nat = std::make_unique<apps::StaticNat>();
  auto* nat_raw = nat.get();
  fabric::ModuleTestbed testbed(std::move(config), std::move(nat));

  // Map every generated source to a translated address.
  fabric::TrafficGen probe(testbed.sim(), spec,
                           testbed.edge_sink());  // only for flow_tuple()
  for (std::size_t rank = 1; rank <= spec.flow_count; ++rank) {
    const auto tuple = probe.flow_tuple(rank);
    ASSERT_TRUE(nat_raw->add_mapping(
        tuple.src, net::Ipv4Address{0x63000000u + std::uint32_t(rank)}));
  }

  const auto result = testbed.run();
  EXPECT_EQ(result.edge_to_optical.loss_rate, 0.0);
  // Spot-check: every source the generator uses is in the NAT table, so
  // the "translated" counter equals the packet count.
  const auto counters = nat_raw->counters();
  EXPECT_EQ(counters[0].packets, result.edge_to_optical.sent_packets);
  EXPECT_EQ(counters[1].packets, 0u);  // no misses
}

TEST(EndToEnd, TelecomEdgeChainEnforcesPolicyPerSubscriber) {
  // §2.1 scenario as a chain: sanitizer (DoH block) -> rate limiter ->
  // VLAN tag, running bidirectionally on a Two-Way-Core shell.
  auto chain = std::make_unique<apps::AppChain>();

  apps::SanitizerConfig sanitizer_config;
  sanitizer_config.block_doh = true;
  auto sanitizer = std::make_unique<apps::Sanitizer>(sanitizer_config);
  sanitizer->add_doh_resolver(net::Ipv4Address::from_octets(1, 1, 1, 1));

  apps::RateLimiterConfig limiter_config;
  auto limiter = std::make_unique<apps::RateLimiter>(limiter_config);
  ASSERT_TRUE(limiter->add_subscriber(*net::Ipv4Prefix::parse("10.0.0.0/16"),
                                      {100'000'000, 8'192}));

  apps::VlanConfig vlan_config;
  vlan_config.mode = apps::VlanMode::push;
  vlan_config.vid = 7;

  auto* limiter_raw = limiter.get();
  chain->append(std::move(sanitizer));
  chain->append(std::move(limiter));
  chain->append(std::make_unique<apps::VlanTagger>(vlan_config));

  fabric::TestbedConfig config;
  config.module.shell.kind = sfp::ShellKind::two_way_core;
  fabric::TrafficSpec spec;
  spec.rate = sim::DataRate::gbps(1);  // over the 100 Mb/s subscriber limit
  spec.duration = 1_ms;
  spec.src_base = net::Ipv4Address::from_octets(10, 0, 0, 0);
  config.edge_traffic = spec;

  fabric::ModuleTestbed testbed(std::move(config), std::move(chain));
  const auto result = testbed.run();

  // The limiter policed the subscriber down to ~100 Mb/s.
  EXPECT_GT(result.ledger.app_drops, 0u);
  EXPECT_LT(result.edge_to_optical.delivered_gbps, 0.2);
  EXPECT_GT(limiter_raw->policed(), 0u);
  // What survived is VLAN-tagged.
  EXPECT_GT(testbed.optical_sink().received().packets(), 0u);
}

TEST(EndToEnd, IntPathMeasurementAcrossTwoModules) {
  // Source module stamps at one end of the fiber, sink module strips and
  // measures at the other — in-band telemetry over legacy infrastructure.
  sim::Simulation sim;

  apps::IntStamperConfig source_config;
  source_config.role = apps::StamperRole::source;
  source_config.device_id = 1;
  sfp::FlexSfpConfig module_config;
  module_config.boot_at_start = false;
  sfp::FlexSfpModule source(sim, std::make_unique<apps::IntStamper>(source_config),
                            module_config);

  apps::IntStamperConfig sink_config;
  sink_config.role = apps::StamperRole::sink;
  auto sink_app = std::make_unique<apps::IntStamper>(sink_config);
  auto* sink_raw = sink_app.get();
  sfp::FlexSfpConfig sink_module_config;
  sink_module_config.boot_at_start = false;
  sink_module_config.shell.direction = sfp::PpeDirection::optical_to_edge;
  sfp::FlexSfpModule sink_module(sim, std::move(sink_app), sink_module_config);

  // Fiber between the two optical ports: 2 km of glass ~ 10 us.
  fabric::Sink end_host(sim);
  source.set_egress_handler(
      sfp::FlexSfpModule::optical_port, [&](net::PacketPtr p) {
        sim.schedule_in(10_us, [&sink_module, p = std::move(p)]() mutable {
          sink_module.inject(sfp::FlexSfpModule::optical_port, std::move(p));
        });
      });
  sink_module.set_egress_handler(sfp::FlexSfpModule::edge_port,
                                 [&](net::PacketPtr p) {
                                   end_host.handle_packet(std::move(p));
                                 });

  sim::LambdaHandler into_source([&source](net::PacketPtr p) {
    source.inject(sfp::FlexSfpModule::edge_port, std::move(p));
  });
  fabric::TrafficSpec spec;
  spec.rate = sim::DataRate::gbps(1);
  spec.duration = 100_us;
  fabric::TrafficGen gen(sim, spec, into_source);
  gen.start();
  sim.run();

  EXPECT_GT(sink_raw->sink_samples(), 0u);
  // Measured one-way latency must be >= the 10 us fiber delay.
  EXPECT_GT(sink_raw->mean_path_latency_ns(), 10'000.0);
  EXPECT_LT(sink_raw->mean_path_latency_ns(), 20'000.0);
  // Telemetry shims never escape to the end host.
  EXPECT_GT(end_host.received().packets(), 0u);
  for (const auto& packet : end_host.retained()) {
    EXPECT_FALSE(sfp::is_mgmt_frame(*packet));
  }
}

TEST(EndToEnd, FlowStatsExportMatchesGeneratedTraffic) {
  fabric::TestbedConfig config;
  fabric::TrafficSpec spec;
  spec.rate = sim::DataRate::gbps(2);
  spec.duration = 200_us;
  spec.flow_count = 32;
  spec.zipf_skew = 0.0;
  config.edge_traffic = spec;

  auto stats = std::make_unique<apps::FlowStats>();
  auto* stats_raw = stats.get();
  fabric::ModuleTestbed testbed(std::move(config), std::move(stats));
  const auto result = testbed.run();

  const auto records = stats_raw->export_all();
  std::uint64_t total_packets = 0;
  for (const auto& record : records) total_packets += record.packets;
  EXPECT_EQ(total_packets, result.edge_to_optical.sent_packets);
  EXPECT_LE(records.size(), 32u);
  EXPECT_GT(records.size(), 10u);
}

}  // namespace
}  // namespace flexsfp
