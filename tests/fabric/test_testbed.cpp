#include "fabric/testbed.hpp"

#include <gtest/gtest.h>

namespace flexsfp::fabric {
namespace {

using namespace sim;  // time literals

TEST(ModuleTestbed, NatAtLineRateLosesNothing) {
  // The §5.1 experiment in miniature: 10G of minimum-size frames through
  // the One-Way-Filter NAT; line rate means zero loss.
  TestbedConfig config;
  TrafficSpec spec;
  spec.rate = DataRate::gbps(10);
  spec.fixed_size = 64;
  spec.duration = 200_us;
  config.edge_traffic = spec;

  ModuleTestbed testbed(std::move(config), std::make_unique<apps::StaticNat>());
  const auto result = testbed.run();
  EXPECT_GT(result.edge_to_optical.sent_packets, 2000u);
  EXPECT_DOUBLE_EQ(result.edge_to_optical.loss_rate, 0.0);
  EXPECT_EQ(result.ledger.queue_drops, 0u);
  EXPECT_NEAR(result.edge_to_optical.delivered_gbps,
              result.edge_to_optical.offered_gbps, 0.05);
}

TEST(ModuleTestbed, LatencyIsSubMicrosecond) {
  TestbedConfig config;
  TrafficSpec spec;
  spec.rate = DataRate::gbps(5);
  spec.fixed_size = 512;
  spec.duration = 100_us;
  config.edge_traffic = spec;
  ModuleTestbed testbed(std::move(config), std::make_unique<apps::StaticNat>());
  const auto result = testbed.run();
  EXPECT_LT(result.edge_to_optical.latency_p99_ns, 2000.0);
  EXPECT_GT(result.edge_to_optical.latency_p50_ns, 100.0);
}

TEST(ModuleTestbed, TwoWayCoreOverloadsAtBidirectionalMinFrames) {
  // Figure 1b consideration: both directions into one PPE doubles the
  // packet rate; at the base clock the engine saturates and drops.
  TestbedConfig config;
  config.module.shell.kind = sfp::ShellKind::two_way_core;
  TrafficSpec spec;
  spec.rate = DataRate::gbps(10);
  spec.fixed_size = 64;
  spec.duration = 200_us;
  config.edge_traffic = spec;
  TrafficSpec rx = spec;
  rx.seed = 2;
  config.optical_traffic = rx;

  ModuleTestbed testbed(std::move(config), std::make_unique<apps::StaticNat>());
  const auto result = testbed.run();
  EXPECT_GT(result.ledger.queue_drops, 0u);
  EXPECT_GT(result.edge_to_optical.loss_rate + result.optical_to_edge.loss_rate,
            0.1);
}

TEST(ModuleTestbed, TwoWayCoreAtDoubleClockSustainsBothDirections) {
  // ...and the paper's remedy: raise the PPE clock.
  TestbedConfig config;
  config.module.shell.kind = sfp::ShellKind::two_way_core;
  config.module.shell.datapath.clock = hw::ClockDomain::mhz(312.5);
  TrafficSpec spec;
  spec.rate = DataRate::gbps(10);
  spec.fixed_size = 64;
  spec.duration = 200_us;
  config.edge_traffic = spec;
  TrafficSpec rx = spec;
  rx.seed = 2;
  config.optical_traffic = rx;

  ModuleTestbed testbed(std::move(config), std::make_unique<apps::StaticNat>());
  const auto result = testbed.run();
  EXPECT_EQ(result.ledger.queue_drops, 0u);
  EXPECT_LT(result.edge_to_optical.loss_rate, 0.001);
  EXPECT_LT(result.optical_to_edge.loss_rate, 0.001);
}

TEST(PowerMeasurement, ReproducesPaperOperatingPoints) {
  const auto measurement = run_power_measurement(
      std::make_unique<apps::StaticNat>(), /*duration=*/1_ms);
  // Paper: 3.800 W / 4.693 W / 5.320 W.
  EXPECT_DOUBLE_EQ(measurement.nic_only_w, 3.800);
  EXPECT_NEAR(measurement.nic_plus_sfp_w, 4.693, 0.05);
  EXPECT_NEAR(measurement.nic_plus_flexsfp_w, 5.320, 0.08);
  EXPECT_NEAR(measurement.sfp_delta_w(), 0.9, 0.05);
  EXPECT_NEAR(measurement.flexsfp_delta_w(), 1.5, 0.1);
}

TEST(ModuleTestbed, PowerScalesWithLoad) {
  auto run_at = [](double gbps) {
    TestbedConfig config;
    TrafficSpec spec;
    spec.rate = DataRate::gbps(gbps);
    spec.fixed_size = 1518;
    spec.duration = 200_us;
    config.edge_traffic = spec;
    ModuleTestbed testbed(std::move(config),
                          std::make_unique<apps::StaticNat>());
    return testbed.run().power.total();
  };
  EXPECT_LT(run_at(1.0), run_at(9.5));
}

}  // namespace
}  // namespace flexsfp::fabric
