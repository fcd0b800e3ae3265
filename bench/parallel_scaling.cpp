// Flow-sharded parallel testbed scaling: wall-clock speedup of the
// shard-per-thread runner over the sequential oracle, plus the determinism
// self-check (parallel merges must be bit-identical to sequential).
//
// The speedup table is stdout only: one run per worker count, host-bound.
// BENCH_parallel_scaling.json carries only what the simulation decides
// (shards, events, determinism); steady host cost is perfbench's job.
//
// Usage: parallel_scaling [shards] [duration_us]   (defaults: 4 2000)
#include <cstdio>
#include <thread>

#include "apps/nat.hpp"
#include "bench_util.hpp"
#include "fabric/parallel_testbed.hpp"

using namespace flexsfp;
using namespace flexsfp::sim;  // time literals

int main(int argc, char** argv) {
  // The defaults are the committed baseline's arguments, so a bare run
  // reproduces bench/baselines/BENCH_parallel_scaling.json.
  constexpr const char* usage = "[shards] [duration_us]";
  bench::max_args(argc, argv, 2, usage);
  const auto shards =
      bench::positional_arg<std::size_t>(argc, argv, 1, 4, 1, 4096, usage);
  const auto duration_us = bench::positional_arg<long long>(
      argc, argv, 2, 2000, 1, 1'000'000'000, usage);

  bench::title("Flow-sharded parallel testbed scaling");
  std::printf("shards=%zu, %lld us of Poisson IMIX @ 9 Gb/s per module, "
              "hardware threads=%u\n\n",
              shards, static_cast<long long>(duration_us),
              std::thread::hardware_concurrency());

  fabric::ParallelTestbedConfig config;
  config.shards = shards;
  config.base_seed = 1;
  fabric::TrafficSpec spec;
  spec.rate = DataRate::gbps(9);
  spec.arrivals = fabric::ArrivalProcess::poisson;
  spec.sizes = fabric::SizeDistribution::imix;
  spec.duration = duration_us * 1_us;
  config.prototype.edge_traffic = spec;

  fabric::ParallelTestbed bed(
      config, [] { return std::make_unique<apps::StaticNat>(); });
  const auto oracle = bed.run(1);

  std::printf("%-10s %12s %10s %14s %12s\n", "workers", "wall (s)", "speedup",
              "events/s", "identical?");
  bench::rule(64);
  std::printf("%-10s %12.3f %10s %14.3g %12s\n", "1 (seq)",
              oracle.wall_seconds, "1.00x",
              double(oracle.events) / oracle.wall_seconds, "oracle");

  bool all_identical = true;
  for (unsigned workers : {2u, 4u, 8u}) {
    if (workers > shards) break;
    const auto run = bed.run(workers);
    // The determinism self-check covers the whole result: every merged
    // registry series, the merged latency histogram and the event count.
    const bool same = run.metrics == oracle.metrics &&
                      run.latency == oracle.latency &&
                      run.events == oracle.events;
    all_identical = all_identical && same;
    std::printf("%-10u %12.3f %9.2fx %14.3g %12s\n", workers,
                run.wall_seconds, oracle.wall_seconds / run.wall_seconds,
                double(run.events) / run.wall_seconds,
                same ? "yes" : "NO");
  }
  bench::rule(64);

  const auto ledger = fabric::FabricLedger::from_snapshot(oracle.metrics);
  std::printf(
      "\ncombined: sent=%llu received=%llu drops=%llu p50=%.1fns "
      "p99=%.1fns events=%llu\n",
      static_cast<unsigned long long>(ledger.sent),
      static_cast<unsigned long long>(ledger.delivered),
      static_cast<unsigned long long>(ledger.queue_drops + ledger.app_drops +
                                      ledger.dark_drops),
      to_nanos(oracle.latency.percentile(50)),
      to_nanos(oracle.latency.percentile(99)),
      static_cast<unsigned long long>(oracle.events));

  const bench::Figures figures{{"shards", double(shards)},
                               {"events_total", double(oracle.events)},
                               {"determinism_ok", all_identical ? 1.0 : 0.0}};
  bench::write_bench_json("parallel_scaling", oracle.metrics, figures);

  if (std::thread::hardware_concurrency() < 2) {
    bench::note(
        "single hardware thread: speedup is not expected here; the "
        "determinism check is the meaningful result.");
  } else {
    bench::note(
        "speedup tracks min(workers, cores, shards); shards share no state, "
        "so scaling is limited only by the merge barrier — the paper's "
        "one-module-per-port cheap-path argument in wall-clock form.");
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: parallel run diverged from the sequential oracle\n");
    return 1;
  }
  std::printf("determinism self-check: PASS (all worker counts bit-identical "
              "to sequential)\n");
  return 0;
}
