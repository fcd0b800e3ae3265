// Chaos soak: subject a full module (and the sharded testbed) to the fault
// processes of sim::FaultInjector and prove the zero-black-hole invariant —
// every packet the experiment offered is either delivered or sits in a
// named counter. Also exercises the graceful-degradation path end to end:
// PPE fault -> dumb-cable passthrough -> golden reboot -> full recovery.
#include <gtest/gtest.h>

#include "apps/rate_limiter.hpp"
#include "apps/register.hpp"
#include "fabric/orchestrator.hpp"
#include "fabric/parallel_testbed.hpp"
#include "fabric/testbed.hpp"
#include "sim/fault_injector.hpp"

namespace flexsfp {
namespace {

using namespace sim;  // time literals

// Forward-everything app: any loss in these tests is injected, never
// application policy.
class PassApp final : public ppe::PpeApp {
 public:
  std::string name() const override { return "pass"; }
  ppe::Verdict process(ppe::PacketContext&) override {
    return ppe::Verdict::forward;
  }
  hw::ResourceUsage resource_usage(const hw::DatapathConfig&) const override {
    return {};
  }
};

TEST(ChaosSoak, NoPacketIsEverBlackHoled) {
  fabric::TestbedConfig config;
  fabric::TrafficSpec traffic;
  traffic.rate = DataRate::gbps(2);
  traffic.duration = 500_us;
  traffic.flow_count = 16;
  config.edge_traffic = traffic;

  FaultSpec faults;
  faults.drop_prob = 0.05;
  faults.ber = 1e-6;
  faults.duplicate_prob = 0.02;
  faults.reorder_prob = 0.01;
  faults.flaps.push_back(FlapWindow{100_us, 50_us});
  faults.seed = 99;
  config.edge_faults = faults;

  fabric::ModuleTestbed testbed(std::move(config),
                                std::make_unique<PassApp>());
  const auto result = testbed.run();
  const auto& tally = result.edge_fault_tally;

  ASSERT_GT(result.edge_to_optical.sent_packets, 0u);
  // The injector's ledger balances: everything offered is delivered,
  // dropped-with-counter, or a duplicate it created itself.
  EXPECT_EQ(tally.delivered + tally.total_dropped(),
            result.edge_to_optical.sent_packets + tally.duplicated);
  EXPECT_GT(tally.dropped, 0u);
  EXPECT_GT(tally.flap_dropped, 0u);  // the 50 us outage really bit

  // Downstream of the injector the module keeps its own ledger; the sink
  // receives exactly what survived every *named* loss mechanism.
  EXPECT_EQ(result.edge_to_optical.received_packets,
            tally.delivered - result.ppe_queue_drops - result.app_drops -
                testbed.module().packets_lost_while_dark());

  // And the same story is visible through the obs:: registry.
  EXPECT_EQ(result.metrics.value("fault.dropped{injector=fault.edge}"),
            tally.dropped);
  EXPECT_EQ(result.metrics.value("fault.delivered{injector=fault.edge}"),
            tally.delivered);
}

TEST(ChaosSoak, ModuleDegradesAndRecoversWithoutBlackHoling) {
  fabric::TestbedConfig config;
  fabric::TrafficSpec traffic;
  traffic.rate = DataRate::gbps(2);
  traffic.duration = 1_ms;
  config.edge_traffic = traffic;

  // The golden image re-instantiates the app through the registry, so this
  // scenario needs a *registered* pass-through app: a default RateLimiter
  // has no subscribers and polices nothing.
  apps::register_builtin_apps();
  fabric::ModuleTestbed testbed(std::move(config),
                                std::make_unique<apps::RateLimiter>());
  // Mid-run the PPE faults; later the module reboots from its golden image.
  testbed.sim().schedule_at(200_us, [&testbed]() {
    testbed.module().fault_ppe();
  });
  testbed.sim().schedule_at(600_us, [&testbed]() {
    ASSERT_TRUE(testbed.module().reboot_from_golden());
  });

  const auto result = testbed.run();
  EXPECT_EQ(testbed.module().degradations(), 1u);
  EXPECT_EQ(testbed.module().state(), sfp::ModuleState::running);
  EXPECT_FALSE(testbed.module().shell().degraded());
  // The degraded window forwarded as a dumb cable (no PPE, no loss); only
  // the golden reboot's dark window lost packets — and counted every one.
  EXPECT_GT(testbed.module().shell().degraded_forwards(), 0u);
  EXPECT_EQ(result.edge_to_optical.received_packets,
            result.edge_to_optical.sent_packets - result.ppe_queue_drops -
                result.app_drops - testbed.module().packets_lost_while_dark());
}

TEST(ChaosSoak, MgmtPlaneSurvivesTargetedLossThroughRetries) {
  // Orchestrator -> module path through an injector that eats 30% of the
  // management frames: the retry machinery still lands every operation.
  Simulation sim;
  sfp::FlexSfpConfig module_config;
  module_config.boot_at_start = false;
  module_config.shell.module_mac = net::MacAddress::from_u64(0x02ee00);
  sfp::FlexSfpModule module(sim, std::make_unique<PassApp>(), module_config);
  module.set_egress_handler(sfp::FlexSfpModule::optical_port,
                            [](net::PacketPtr) {});

  fabric::OrchestratorConfig orch_config;
  orch_config.key = sfp::FlexSfpConfig{}.auth_key;
  orch_config.timeout_ps = 1'000'000'000;  // 1 ms
  orch_config.max_retries = 6;
  fabric::FleetOrchestrator orchestrator(sim, orch_config);
  module.set_egress_handler(
      sfp::FlexSfpModule::edge_port,
      [&orchestrator](net::PacketPtr p) { orchestrator.deliver(*p); });

  LambdaHandler into_module([&module](net::PacketPtr p) {
    module.inject(sfp::FlexSfpModule::edge_port, std::move(p));
  });
  FaultSpec faults;
  faults.target_drop_prob = 0.3;
  faults.seed = 5;
  FaultInjector injector(sim, faults, into_module, "mgmt.chaos");
  injector.set_target_filter(sfp::is_mgmt_frame);
  orchestrator.add_module("module-0", module_config.shell.module_mac,
                          [&injector](net::PacketPtr p) {
                            injector.handle_packet(std::move(p));
                          });

  int answered = 0;
  for (int i = 0; i < 20; ++i) {
    orchestrator.ping("module-0", std::uint64_t(i),
                      [&answered, i](std::optional<sfp::MgmtResponse> r) {
                        ASSERT_TRUE(r.has_value());
                        EXPECT_EQ(r->value, std::uint64_t(i));
                        ++answered;
                      });
  }
  sim.run();
  EXPECT_EQ(answered, 20);
  EXPECT_GT(injector.tally().target_dropped, 0u);
  EXPECT_GT(orchestrator.retransmissions(), 0u);
  EXPECT_EQ(orchestrator.timeouts(), 0u);
}

TEST(ChaosSoak, ParallelShardsStayBitIdenticalWithInjectionEnabled) {
  fabric::ParallelTestbedConfig config;
  config.shards = 4;
  config.workers = 4;
  config.base_seed = 17;
  fabric::TrafficSpec traffic;
  traffic.rate = DataRate::gbps(4);
  traffic.arrivals = fabric::ArrivalProcess::poisson;
  traffic.duration = 100_us;
  config.prototype.edge_traffic = traffic;
  FaultSpec faults;
  faults.drop_prob = 0.05;
  faults.duplicate_prob = 0.02;
  faults.ber = 1e-6;
  config.prototype.edge_faults = faults;

  fabric::ParallelTestbed bed(config, [] {
    return std::make_unique<PassApp>();
  });
  const auto parallel = bed.run();
  const auto sequential = bed.run_sequential();

  ASSERT_GT(parallel.metrics.sum("gen.emitted.packets"), 0u);
  // The whole registry — fault.* series included — obeys the oracle.
  EXPECT_EQ(parallel.metrics, sequential.metrics);
  EXPECT_GT(parallel.metrics.sum("fault.dropped"), 0u);
  EXPECT_EQ(parallel.latency, sequential.latency);
  EXPECT_EQ(parallel.events, sequential.events);
  ASSERT_EQ(parallel.shards.size(), sequential.shards.size());
  for (std::size_t i = 0; i < parallel.shards.size(); ++i) {
    const auto& p = parallel.shards[i].result.edge_fault_tally;
    const auto& s = sequential.shards[i].result.edge_fault_tally;
    EXPECT_EQ(p.delivered, s.delivered) << "shard " << i;
    EXPECT_EQ(p.dropped, s.dropped) << "shard " << i;
    EXPECT_EQ(p.corrupted, s.corrupted) << "shard " << i;
    EXPECT_EQ(p.duplicated, s.duplicated) << "shard " << i;
  }

  // Distinct shards run distinct fault streams, and a fault stream never
  // collides with the traffic stream derived from the same base seed.
  const auto f0 = fabric::ParallelTestbed::shard_fault_spec(faults, 17, 0, 0);
  const auto f1 = fabric::ParallelTestbed::shard_fault_spec(faults, 17, 1, 0);
  const auto t0 = fabric::ParallelTestbed::shard_spec(traffic, 17, 0, 0);
  EXPECT_NE(f0.seed, f1.seed);
  EXPECT_NE(f0.seed, t0.seed);
}

}  // namespace
}  // namespace flexsfp
