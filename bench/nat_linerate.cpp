// Reproduces the §5.1 end-to-end test: "a simple end-to-end test ...
// confirmed line-rate performance" — static NAT at 10 Gb/s across frame
// sizes, reporting throughput, loss and latency per size.
//
// Every figure in BENCH_nat_linerate.json is simulated-time output, a pure
// function of the code: delivered Gb/s per frame size, the worst loss, the
// simulated event count and events per packet at 64 B. Host cost is perfbench's job (nat_64b).
#include <algorithm>
#include <cstdio>

#include "apps/nat.hpp"
#include "bench_util.hpp"
#include "fabric/testbed.hpp"

int main() {
  using namespace flexsfp;
  using namespace flexsfp::sim;

  bench::title(
      "Section 5.1 — static NAT line-rate test (One-Way-Filter, 64b @ "
      "156.25 MHz)");

  std::printf("%-10s %12s %12s %8s %10s %10s %10s\n", "frame", "offered",
              "delivered", "loss", "p50 lat", "p99 lat", "PPE util");
  bench::rule(80);

  obs::MetricSnapshot all_frames;
  bench::Figures figures;
  double worst_loss = 0;
  std::uint64_t events_total = 0;
  for (const std::size_t frame : {64, 128, 256, 512, 1024, 1280, 1518}) {
    fabric::TestbedConfig config;
    fabric::TrafficSpec spec;
    spec.rate = DataRate::gbps(10);
    spec.fixed_size = frame;
    spec.duration = 500_us;
    config.edge_traffic = spec;

    auto nat = std::make_unique<apps::StaticNat>();
    // Populate a realistic share of the 32k table.
    for (std::uint32_t i = 0; i < 1024; ++i) {
      nat->add_mapping(net::Ipv4Address{0x0a000000u + i},
                       net::Ipv4Address{0xcb007100u + i});
    }
    fabric::ModuleTestbed testbed(std::move(config), std::move(nat));
    const auto result = testbed.run();
    const std::uint64_t events = testbed.sim().executed_events();
    events_total += events;
    const auto& direction = result.edge_to_optical;
    std::printf("%7zu B %9.3f G %9.3f G %7.3f%% %8.1f ns %8.1f ns %9.1f%%\n",
                frame, direction.offered_gbps, direction.delivered_gbps,
                direction.loss_rate * 100.0, direction.latency_p50_ns,
                direction.latency_p99_ns, result.ppe_utilization * 100.0);
    // Keep every frame size's registry series apart with a {frame=N}
    // label, the same trick the parallel testbed uses for shards.
    all_frames.merge(result.metrics.with_label("frame", std::to_string(frame)));
    figures.emplace_back("delivered_gbps_" + std::to_string(frame),
                         direction.delivered_gbps);
    if (frame == 64) {
      // The simulator's own work per packet where it matters most: every
      // event executed in the 64 B run over the packets offered.
      figures.emplace_back("events_per_packet_64",
                           double(events) / double(direction.sent_packets));
    }
    worst_loss = std::max(worst_loss, direction.loss_rate);
  }
  bench::rule(80);
  std::printf("simulated events: %llu\n",
              static_cast<unsigned long long>(events_total));
  figures.emplace_back("worst_loss_rate", worst_loss);
  figures.emplace_back("events_total", double(events_total));
  bench::write_bench_json("nat_linerate", all_frames, figures);
  bench::note(
      "paper reports line rate at 10 Gb/s; zero loss at every frame size "
      "reproduces it. The 64b x 156.25 MHz bus is exactly 10 Gb/s, so PPE "
      "utilization approaches 100% at small frames.");
  return 0;
}
