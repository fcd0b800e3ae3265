// Crosspoint-queued crossbar fabric under the two canonical stress mixes:
// incast (every module blasts one victim output) and elephant/mouse (jumbo
// bulk flows vs minimum-size request traffic), plus the windowed parallel
// engine's determinism self-check across worker counts.
//
// Usage: fabric_xbar [modules] [duration_us]
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "fabric/fabric_testbed.hpp"

namespace {

using namespace flexsfp;
using namespace flexsfp::sim;  // time literals

fabric::Topology base_topology(std::size_t modules, sim::TimePs duration) {
  fabric::Topology topo;
  topo.modules = modules;
  topo.traffic_prototype.duration = duration;
  topo.traffic_prototype.arrivals = fabric::ArrivalProcess::poisson;
  return topo;
}

double sum_delivered_gbps(const fabric::FabricRunResult& run) {
  double total = 0;
  for (const auto& m : run.modules) total += m.delivered_gbps;
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* usage = "[modules] [duration_us]";
  bench::max_args(argc, argv, 2, usage);
  const auto modules =
      bench::positional_arg<std::size_t>(argc, argv, 1, 4, 2, 4096, usage);
  const auto duration_us = bench::positional_arg<long long>(
      argc, argv, 2, 2000, 1, 1'000'000'000, usage);
  const auto duration = duration_us * 1_us;

  bench::title("Crossbar fabric: incast and elephant/mouse mixes");
  std::printf("%zu modules, %lld us per scenario, crosspoint-queued fabric "
              "@ 10 Gb/s ports\n\n",
              modules, static_cast<long long>(duration_us));

  bench::Figures figures{{"modules", double(modules)}};

  // --- Scenario 1: incast. Everyone targets module 0's edge; output 0 is
  // (modules-1)-to-1 oversubscribed, so crosspoints toward it fill, the
  // round-robin arbiter shares what the port can carry fairly, and the
  // overflow is dropped AT A NAMED COUNTER, never black-holed.
  {
    fabric::Topology topo = base_topology(modules, duration);
    topo.targets.assign(modules, 0);
    topo.traffic_prototype.rate = DataRate::gbps(6);
    topo.crosspoint_capacity = 16;
    fabric::FabricTestbed bed(topo);
    const auto run = bed.run();
    const double victim_gbps = run.modules[0].delivered_gbps;
    std::printf("%-22s %10s %14s %16s %10s\n", "scenario", "offered",
                "delivered", "crosspoint drops", "balanced");
    bench::rule(78);
    std::printf("%-22s %7.2f Gb %11.2f Gb %16llu %10s\n", "incast -> module 0",
                6.0 * double(modules), victim_gbps,
                static_cast<unsigned long long>(run.ledger.crosspoint_drops),
                run.ledger.balanced() ? "yes" : "NO");
    figures.emplace_back("delivered_gbps_incast", victim_gbps);
    figures.emplace_back("crosspoint_drops_incast",
                         double(run.ledger.crosspoint_drops));
    if (!run.ledger.balanced()) {
      std::fprintf(stderr, "FAIL: incast ledger unbalanced (%llu != %llu)\n",
                   static_cast<unsigned long long>(run.ledger.injected()),
                   static_cast<unsigned long long>(run.ledger.accounted()));
      return 1;
    }
  }

  // --- Scenario 2/3: elephant vs mouse on the default ring. Same fabric,
  // same target permutation; only the traffic shape changes. Elephants are
  // MTU-size bulk transfers near line rate, mice are minimum-size frames at
  // modest load — per-packet overheads dominate the mouse number.
  for (const bool elephant : {true, false}) {
    fabric::Topology topo = base_topology(modules, duration);
    topo.traffic_prototype.arrivals = fabric::ArrivalProcess::cbr;
    topo.traffic_prototype.fixed_size = elephant ? 1500 : 64;
    topo.traffic_prototype.rate = DataRate::gbps(elephant ? 8 : 2);
    fabric::FabricTestbed bed(topo);
    const auto run = bed.run();
    const double delivered = sum_delivered_gbps(run);
    std::printf("%-22s %7.2f Gb %11.2f Gb %16llu %10s\n",
                elephant ? "elephant ring (1500B)" : "mouse ring (64B)",
                (elephant ? 8.0 : 2.0) * double(modules), delivered,
                static_cast<unsigned long long>(run.ledger.crosspoint_drops),
                run.ledger.balanced() ? "yes" : "NO");
    figures.emplace_back(
        elephant ? "delivered_gbps_elephant" : "delivered_gbps_mouse",
        delivered);
    if (!run.ledger.balanced()) {
      std::fprintf(stderr, "FAIL: %s ledger unbalanced\n",
                   elephant ? "elephant" : "mouse");
      return 1;
    }
  }
  bench::rule(78);

  // --- Determinism self-check: the conservatively synchronized parallel
  // engine must merge to the exact snapshot of its sequential oracle for
  // every worker count, faults included.
  fabric::Topology topo = base_topology(modules, duration);
  sim::FaultSpec faults;
  faults.drop_prob = 0.02;
  faults.duplicate_prob = 0.01;
  topo.link_faults = faults;
  fabric::FabricParallelTestbed bed(topo);
  const auto oracle = bed.run(1);
  bool deterministic = oracle.ledger.balanced();
  std::printf("\nwindowed engine: %llu sync rounds, lookahead %lld ps\n",
              static_cast<unsigned long long>(oracle.rounds),
              static_cast<long long>(topo.link_delay_ps));
  for (const unsigned workers : {2u, 4u}) {
    const auto run = bed.run(workers);
    const bool same = run.metrics == oracle.metrics;
    deterministic = deterministic && same;
    std::printf("  workers=%u (threads=%u): %s\n", workers, run.workers_used,
                same ? "bit-identical" : "DIVERGED");
  }
  figures.emplace_back("determinism_ok", deterministic ? 1.0 : 0.0);
  figures.emplace_back("rounds_fabric", double(oracle.rounds));

  bench::write_bench_json("fabric_xbar", oracle.metrics, figures);
  bench::note("every figure is a deterministic simulation output; host cost "
              "is perfbench's fabric_incast workload.");

  if (!deterministic) {
    std::fprintf(stderr,
                 "FAIL: parallel fabric diverged from its sequential run\n");
    return 1;
  }
  std::printf("determinism self-check: PASS\n");
  return 0;
}
