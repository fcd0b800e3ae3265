// Reproduces the §5.1 end-to-end test: "a simple end-to-end test ...
// confirmed line-rate performance" — static NAT at 10 Gb/s across frame
// sizes, reporting throughput, loss and latency per size.
//
// Also the repo's headline hot-path figure: sequential simulated events/sec
// across the whole sweep, recorded next to the seed-era number so the
// pooled-packet + slab-queue speedup stays visible (and gated) in BENCH JSON.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "apps/nat.hpp"
#include "bench_util.hpp"
#include "fabric/testbed.hpp"

namespace {
// Sequential events/sec of this sweep measured at the seed (shared_ptr
// packets + std::function/priority_queue event loop), Release, best-of-7
// runs interleaved with the pooled build on the machine that committed
// bench/baselines. Kept as a figure so the before/after ratio travels with
// every fresh BENCH JSON.
constexpr double seed_events_per_sec = 6.7e6;
}  // namespace

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
  // The sweep is deterministic, so the fastest of `repeats` runs is the one
  // with the least interference from whatever else the machine is doing —
  // that is the number comparable across commits on a shared box.
  const int repeats = bench::repeats_from_env(5);
  double best_wall = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    std::uint64_t rep_events = 0;
    double rep_wall = 0;
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
      const auto start = std::chrono::steady_clock::now();
      const auto result = testbed.run();
      rep_wall += std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
      rep_events += testbed.sim().executed_events();
      if (rep != 0) continue;
      const auto& direction = result.edge_to_optical;
      std::printf(
          "%7zu B %9.3f G %9.3f G %7.3f%% %8.1f ns %8.1f ns %9.1f%%\n", frame,
          direction.offered_gbps, direction.delivered_gbps,
          direction.loss_rate * 100.0, direction.latency_p50_ns,
          direction.latency_p99_ns, result.ppe_utilization * 100.0);
      // Keep every frame size's registry series apart with a {frame=N}
      // label, the same trick the parallel testbed uses for shards.
      all_frames.merge(
          result.metrics.with_label("frame", std::to_string(frame)));
      figures.emplace_back("delivered_gbps_" + std::to_string(frame),
                           direction.delivered_gbps);
      worst_loss = std::max(worst_loss, direction.loss_rate);
    }
    events_total = rep_events;
    best_wall = rep == 0 ? rep_wall : std::min(best_wall, rep_wall);
  }
  bench::rule(80);
  const double events_per_sec =
      best_wall > 0 ? double(events_total) / best_wall : 0;
  std::printf("hot path: %llu events, best of %d runs %.3f s = %.3g events/s "
              "(seed: %.3g, %.2fx)\n",
              static_cast<unsigned long long>(events_total), repeats,
              best_wall, events_per_sec, seed_events_per_sec,
              events_per_sec / seed_events_per_sec);
  const double wall_seconds = best_wall;
  figures.emplace_back("worst_loss_rate", worst_loss);
  figures.emplace_back("events_total", double(events_total));
  figures.emplace_back("wall_seconds", wall_seconds);
  figures.emplace_back("events_per_sec", events_per_sec);
  figures.emplace_back("seed_events_per_sec", seed_events_per_sec);
  figures.emplace_back("speedup_vs_seed", events_per_sec / seed_events_per_sec);
  bench::write_bench_json("nat_linerate", all_frames, figures);
  bench::note(
      "paper reports line rate at 10 Gb/s; zero loss at every frame size "
      "reproduces it. The 64b x 156.25 MHz bus is exactly 10 Gb/s, so PPE "
      "utilization approaches 100% at small frames.");
  return 0;
}
