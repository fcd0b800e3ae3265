// Chaos soak bench: drive a FlexSFP module through escalating fault
// profiles — random loss, BER corruption, duplication, reorder, link flaps,
// and a mid-run PPE fault with golden-image reboot — and audit the
// zero-black-hole invariant after each: every offered packet is delivered
// or sits in a named counter. Emits BENCH_chaos.json for CI.
//
// usage: chaos_soak [duration_us]   (default 1000)
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/rate_limiter.hpp"
#include "apps/register.hpp"
#include "bench_util.hpp"
#include "fabric/testbed.hpp"
#include "sim/fault_injector.hpp"

namespace {

using namespace flexsfp;

struct Scenario {
  const char* name;
  sim::FaultSpec faults;
  bool degrade_mid_run = false;  // PPE fault at 20%, golden reboot at 60%
};

}  // namespace

int main(int argc, char** argv) {
  using namespace flexsfp::sim;

  constexpr const char* usage = "[duration_us]";
  bench::max_args(argc, argv, 1, usage);
  // Bounded so the picosecond product below fits TimePs.
  const auto duration_us = bench::positional_arg<TimePs>(
      argc, argv, 1, 1000, 1, 1'000'000'000, usage);
  const auto duration = duration_us * 1'000'000;

  apps::register_builtin_apps();
  bench::title("Chaos soak — zero-black-hole audit under injected faults");
  std::printf("per-scenario traffic: 2 Gb/s CBR for %lld us\n\n",
              static_cast<long long>(duration_us));

  std::vector<Scenario> scenarios;
  {
    Scenario calm{"calm", {}, false};
    scenarios.push_back(calm);

    Scenario lossy{"lossy", {}, false};
    lossy.faults.drop_prob = 0.05;
    lossy.faults.ber = 1e-6;
    lossy.faults.seed = 7;
    scenarios.push_back(lossy);

    Scenario flappy{"flappy", {}, false};
    flappy.faults.drop_prob = 0.01;
    flappy.faults.duplicate_prob = 0.02;
    flappy.faults.reorder_prob = 0.01;
    flappy.faults.flaps.push_back({duration / 5, duration / 10});
    flappy.faults.flaps.push_back({duration / 2, duration / 10});
    flappy.faults.seed = 13;
    scenarios.push_back(flappy);

    Scenario hostile{"hostile", {}, true};
    hostile.faults.drop_prob = 0.05;
    hostile.faults.ber = 1e-6;
    hostile.faults.duplicate_prob = 0.02;
    hostile.faults.reorder_prob = 0.02;
    hostile.faults.flaps.push_back({duration / 4, duration / 8});
    hostile.faults.seed = 99;
    scenarios.push_back(hostile);
  }

  std::printf("%-9s %9s %9s %8s %8s %8s %8s %8s %10s %6s\n", "scenario",
              "sent", "recvd", "dropped", "flapped", "corrupt", "dup",
              "dark", "unaccount", "ok?");
  bench::rule(92);

  bool all_balanced = true;
  bench::Figures figures;
  obs::MetricSnapshot last_snapshot;
  for (const Scenario& scenario : scenarios) {
    fabric::TestbedConfig config;
    fabric::TrafficSpec traffic;
    traffic.rate = DataRate::gbps(2);
    traffic.duration = duration;
    traffic.flow_count = 64;
    config.edge_traffic = traffic;
    const bool has_injector =
        scenario.faults.any_random_fault() || !scenario.faults.flaps.empty();
    if (has_injector) config.edge_faults = scenario.faults;

    // A default RateLimiter polices nothing (all loss in this soak is
    // injected, never policy) and is registry-backed, so the golden image
    // can re-instantiate it on reboot.
    fabric::ModuleTestbed testbed(std::move(config),
                                  std::make_unique<apps::RateLimiter>());
    bool reboot_ok = !scenario.degrade_mid_run;
    if (scenario.degrade_mid_run) {
      testbed.sim().schedule_at(duration / 5,
                                [&testbed]() { testbed.module().fault_ppe(); });
      testbed.sim().schedule_at(duration * 3 / 5, [&testbed, &reboot_ok]() {
        reboot_ok = testbed.module().reboot_from_golden();
      });
    }
    const auto result = testbed.run();
    const fabric::FabricLedger& ledger = result.ledger;

    // The black-hole audit: generated + injector duplicates == delivered +
    // every named drop (injector, PPE/arbiter queues, app, dark window, ...).
    const std::uint64_t sent = result.edge_to_optical.sent_packets;
    const std::uint64_t received = result.edge_to_optical.received_packets;
    const std::uint64_t unaccounted =
        ledger.injected() >= ledger.accounted()
            ? ledger.injected() - ledger.accounted()
            : ledger.accounted() - ledger.injected();
    const bool recovered =
        !scenario.degrade_mid_run ||
        (reboot_ok && testbed.module().state() == sfp::ModuleState::running);
    const bool balanced = unaccounted == 0 && recovered;
    all_balanced = all_balanced && balanced;

    std::printf("%-9s %9llu %9llu %8llu %8llu %8llu %8llu %8llu %10llu %6s\n",
                scenario.name, static_cast<unsigned long long>(sent),
                static_cast<unsigned long long>(received),
                static_cast<unsigned long long>(ledger.fault_dropped),
                static_cast<unsigned long long>(
                    result.metrics.sum("fault.flap_dropped")),
                static_cast<unsigned long long>(
                    result.metrics.sum("fault.corrupted")),
                static_cast<unsigned long long>(ledger.duplicated),
                static_cast<unsigned long long>(ledger.dark_drops),
                static_cast<unsigned long long>(unaccounted),
                balanced ? "yes" : "NO");

    const std::string prefix = std::string(scenario.name) + "_";
    figures.emplace_back(prefix + "sent", double(sent));
    figures.emplace_back(prefix + "received", double(received));
    figures.emplace_back(prefix + "injected_drops",
                         double(ledger.fault_dropped));
    figures.emplace_back(prefix + "unaccounted", double(unaccounted));
    if (scenario.degrade_mid_run) {
      figures.emplace_back(prefix + "degraded_forwards",
                           double(testbed.module().shell().degraded_forwards()));
    }
    last_snapshot = result.metrics;
  }

  std::printf("\n");
  if (all_balanced) {
    bench::note(
        "zero black holes: every scenario's packet ledger balances — "
        "delivered + named drops == offered + duplicates, end to end.");
  } else {
    bench::note("LEDGER IMBALANCE: at least one packet vanished without a "
                "counter. This is the §3 failure mode the design forbids.");
  }
  figures.emplace_back("all_balanced", all_balanced ? 1.0 : 0.0);
  const bool wrote = bench::write_bench_json("chaos", last_snapshot, figures);
  return all_balanced && wrote ? 0 : 1;
}
