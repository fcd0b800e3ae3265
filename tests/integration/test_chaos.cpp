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
#include "hw/spi_flash.hpp"
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
  const FaultTally tally = testbed.edge_faults()->tally();
  const fabric::FabricLedger& ledger = result.ledger;

  ASSERT_GT(result.edge_to_optical.sent_packets, 0u);
  // The injector's ledger balances: everything offered is delivered,
  // dropped-with-counter, or a duplicate it created itself.
  EXPECT_EQ(tally.delivered + tally.total_dropped(),
            result.edge_to_optical.sent_packets + tally.duplicated);
  EXPECT_GT(tally.dropped, 0u);
  EXPECT_GT(tally.flap_dropped, 0u);  // the 50 us outage really bit

  // Downstream of the injector the sink receives exactly what survived
  // every *named* loss mechanism, and the one ledger closes end to end.
  EXPECT_EQ(result.edge_to_optical.received_packets,
            tally.delivered - ledger.queue_drops - ledger.app_drops -
                ledger.dark_drops);
  EXPECT_EQ(ledger.fault_dropped, tally.total_dropped());
  EXPECT_EQ(ledger.duplicated, tally.duplicated);
  EXPECT_TRUE(ledger.balanced());

  // And the same story is visible through the obs:: registry.
  EXPECT_EQ(result.metrics.value("fault.dropped{injector=fault.edge}"),
            tally.dropped);
  EXPECT_EQ(result.metrics.value("fault.delivered{injector=fault.edge}"),
            tally.delivered);
}

// Faults on both ports of one module: random and flap loss, BER, duplicates
// and reorder. Whatever the shell, every generated packet (plus every
// injector-minted duplicate) is delivered or sits in one named drop term.
FaultSpec both_ports_faults(std::uint64_t seed) {
  FaultSpec faults;
  faults.drop_prob = 0.05;
  faults.ber = 1e-4;
  faults.duplicate_prob = 0.02;
  faults.reorder_prob = 0.02;
  faults.flaps.push_back(FlapWindow{100_us, 20_us});
  faults.seed = seed;
  return faults;
}

fabric::TestbedConfig imix_both_ways(sfp::ShellKind shell) {
  fabric::TestbedConfig config;
  config.module.shell.kind = shell;
  fabric::TrafficSpec traffic;
  traffic.rate = DataRate::gbps(9);
  traffic.sizes = fabric::SizeDistribution::imix;
  traffic.duration = 300_us;
  config.edge_traffic = traffic;
  traffic.seed = 2;
  config.optical_traffic = traffic;
  return config;
}

TEST(ChaosSoak, ModuleRunsCloseTheOneLedger) {
  for (const sfp::ShellKind shell :
       {sfp::ShellKind::one_way_filter, sfp::ShellKind::two_way_core}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
      fabric::TestbedConfig config = imix_both_ways(shell);
      config.edge_faults = both_ports_faults(seed);
      config.optical_faults = both_ports_faults(seed + 100);
      fabric::ModuleTestbed testbed(std::move(config),
                                    std::make_unique<PassApp>());
      const auto result = testbed.run();
      const fabric::FabricLedger& ledger = result.ledger;
      SCOPED_TRACE(sfp::to_string(shell) + " seed " + std::to_string(seed));
      ASSERT_GT(ledger.sent, 0u);
      EXPECT_TRUE(ledger.balanced()) << "injected " << ledger.injected()
                                     << " accounted " << ledger.accounted();
      EXPECT_GT(ledger.fault_dropped, 0u);
      // Both directions into one PPE at 9 Gb/s IMIX each overrun it.
      if (shell == sfp::ShellKind::two_way_core) {
        EXPECT_GT(ledger.queue_drops, 0u);
      }
    }
  }
}

TEST(ChaosSoak, ParallelShardsCloseTheOneLedger) {
  fabric::ParallelTestbedConfig config;
  config.shards = 4;
  config.base_seed = 23;
  config.prototype = imix_both_ways(sfp::ShellKind::two_way_core);
  config.prototype.edge_traffic->duration = 100_us;
  config.prototype.optical_traffic->duration = 100_us;
  config.prototype.edge_faults = both_ports_faults(0);
  config.prototype.optical_faults = both_ports_faults(0);

  fabric::ParallelTestbed bed(config, [] {
    return std::make_unique<PassApp>();
  });
  const auto run = bed.run(4);
  const auto ledger = fabric::FabricLedger::from_snapshot(run.metrics);
  ASSERT_GT(ledger.sent, 0u);
  EXPECT_GT(ledger.fault_dropped, 0u);
  EXPECT_GT(ledger.duplicated, 0u);
  EXPECT_TRUE(ledger.balanced())
      << "injected " << ledger.injected() << " accounted "
      << ledger.accounted();
  // And shard by shard: the merge adds no term and loses none.
  for (const auto& shard : run.shards) {
    EXPECT_TRUE(fabric::FabricLedger::from_snapshot(shard.metrics).balanced())
        << "shard " << shard.shard;
  }
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
  // The degraded window forwarded as a dumb cable (no PPE, no loss). The
  // golden reboot's flash write outlasts the traffic, so its dark reload
  // window opens after the last packet; the next test sends into it.
  EXPECT_GT(testbed.module().shell().degraded_forwards(), 0u);
  const fabric::FabricLedger& ledger = result.ledger;
  EXPECT_EQ(result.edge_to_optical.received_packets,
            result.edge_to_optical.sent_packets - ledger.queue_drops -
                ledger.app_drops - ledger.dark_drops);
  EXPECT_TRUE(ledger.balanced());
}

TEST(ChaosSoak, TrafficInTheReloadWindowIsCountedDark) {
  // Flash programming keeps the old design forwarding; only the FPGA
  // reload after it darkens the module. Time the golden reboot so that
  // low-rate edge traffic starts mid-reload: every frame meets a dark
  // module, and the ledger still closes through its dark_drops term.
  constexpr TimePs kTrafficStart = 60_s;  // past the ~28 s flash write
  fabric::TestbedConfig config;
  fabric::TrafficSpec traffic;
  traffic.rate = DataRate::gbps(1);
  traffic.start = kTrafficStart;
  traffic.duration = 100_us;
  config.edge_traffic = traffic;
  const TimePs reload = config.module.fpga_reload_ps;

  apps::register_builtin_apps();
  fabric::ModuleTestbed testbed(std::move(config),
                                std::make_unique<apps::RateLimiter>());
  const auto golden = testbed.module().flash().read(0);
  ASSERT_TRUE(golden.has_value());
  const TimePs flash = hw::SpiFlash::program_time(golden->flash_size_bytes());
  ASSERT_GT(kTrafficStart, flash + reload / 2);
  testbed.sim().schedule_at(kTrafficStart - flash - reload / 2, [&testbed]() {
    ASSERT_TRUE(testbed.module().reboot_from_golden());
  });

  const auto result = testbed.run();
  const fabric::FabricLedger& ledger = result.ledger;
  EXPECT_EQ(testbed.module().state(), sfp::ModuleState::running);
  ASSERT_GT(ledger.sent, 0u);
  EXPECT_GT(ledger.dark_drops, 0u);
  EXPECT_EQ(ledger.dark_drops, ledger.sent);  // the window outlasts it all
  EXPECT_EQ(result.edge_to_optical.received_packets, 0u);
  EXPECT_TRUE(ledger.balanced()) << "injected " << ledger.injected()
                                 << " accounted " << ledger.accounted();
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
  const auto parallel = bed.run(4);
  const auto sequential = bed.run(1);

  ASSERT_GT(parallel.metrics.sum("gen.emitted.packets"), 0u);
  // The whole registry — fault.* series included — obeys the oracle.
  EXPECT_EQ(parallel.metrics, sequential.metrics);
  EXPECT_GT(parallel.metrics.sum("fault.dropped"), 0u);
  EXPECT_EQ(parallel.latency, sequential.latency);
  EXPECT_EQ(parallel.events, sequential.events);
  ASSERT_EQ(parallel.shards.size(), sequential.shards.size());
  for (std::size_t i = 0; i < parallel.shards.size(); ++i) {
    // Each shard's own snapshot, fault.* series included.
    EXPECT_EQ(parallel.shards[i].metrics, sequential.shards[i].metrics)
        << "shard " << i;
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
