#include "fabric/parallel_testbed.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "sim/parallel.hpp"
#include "sim/random.hpp"

namespace flexsfp::fabric {

ParallelTestbed::ParallelTestbed(ParallelTestbedConfig config,
                                 AppFactory app_factory)
    : config_(std::move(config)), app_factory_(std::move(app_factory)) {
  if (config_.shards == 0) {
    throw std::invalid_argument("ParallelTestbed needs at least one shard");
  }
  if (!app_factory_) {
    throw std::invalid_argument("ParallelTestbed needs an app factory");
  }
}

TrafficSpec ParallelTestbed::shard_spec(const TrafficSpec& prototype,
                                        std::uint64_t base_seed,
                                        std::size_t shard,
                                        unsigned direction) {
  TrafficSpec spec = prototype;
  // Two streams per shard (edge / optical) so the directions of one module
  // are as independent as two different modules.
  spec.seed = sim::derive_stream_seed(base_seed, shard * 2 + direction);
  // Disjoint flow-space slice: each shard's flows live in their own /16 so
  // no two modules ever see the same 5-tuple (ports stay per-flow).
  const auto offset = static_cast<std::uint32_t>(shard) << 16;
  spec.src_base = net::Ipv4Address(prototype.src_base.value() + offset);
  spec.dst_base = net::Ipv4Address(prototype.dst_base.value() + offset);
  spec.src_mac = net::MacAddress::from_u64(0x020000000000ull +
                                           (std::uint64_t(shard) << 8) + 1);
  spec.dst_mac = net::MacAddress::from_u64(0x020000000000ull +
                                           (std::uint64_t(shard) << 8) + 2);
  return spec;
}

sim::FaultSpec ParallelTestbed::shard_fault_spec(const sim::FaultSpec& prototype,
                                                 std::uint64_t base_seed,
                                                 std::size_t shard,
                                                 unsigned direction) {
  sim::FaultSpec spec = prototype;
  // Salted base so the fault streams are disjoint from the traffic streams
  // (which use derive_stream_seed(base_seed, shard*2+direction) directly).
  constexpr std::uint64_t fault_salt = 0x666c745f73616c74ull;  // "flt_salt"
  spec.seed =
      sim::derive_stream_seed(base_seed ^ fault_salt, shard * 2 + direction);
  return spec;
}

ShardOutcome ParallelTestbed::run_shard(std::size_t shard,
                                        ppe::PpeAppPtr app) const {
  ShardOutcome out;
  out.shard = shard;

  TestbedConfig config = config_.prototype;
  if (config.edge_traffic) {
    config.edge_traffic =
        shard_spec(*config.edge_traffic, config_.base_seed, shard, 0);
    out.edge_seed = config.edge_traffic->seed;
  }
  if (config.optical_traffic) {
    config.optical_traffic =
        shard_spec(*config.optical_traffic, config_.base_seed, shard, 1);
    out.optical_seed = config.optical_traffic->seed;
  }
  if (config.edge_faults) {
    config.edge_faults =
        shard_fault_spec(*config.edge_faults, config_.base_seed, shard, 0);
  }
  if (config.optical_faults) {
    config.optical_faults =
        shard_fault_spec(*config.optical_faults, config_.base_seed, shard, 1);
  }

  ModuleTestbed testbed(std::move(config), std::move(app));
  out.result = testbed.run();
  out.metrics = out.result.metrics.with_label("shard", std::to_string(shard));
  out.flight = testbed.sim().flight().events();

  if (testbed.edge_gen() != nullptr) {
    out.stats.sent.merge(testbed.edge_gen()->emitted());
  }
  if (testbed.optical_gen() != nullptr) {
    out.stats.sent.merge(testbed.optical_gen()->emitted());
  }
  out.stats.received.merge(testbed.edge_sink().received());
  out.stats.received.merge(testbed.optical_sink().received());
  out.stats.latency.merge(testbed.edge_sink().latency());
  out.stats.latency.merge(testbed.optical_sink().latency());
  out.stats.queue_drops = out.result.ppe_queue_drops;
  out.stats.app_drops = out.result.app_drops;
  out.stats.dark_drops = testbed.module().packets_lost_while_dark();
  out.stats.events = testbed.sim().executed_events();
  out.app_counters = testbed.module().app().counters();
  return out;
}

ParallelRunResult ParallelTestbed::run() { return run_with(config_.workers); }

ParallelRunResult ParallelTestbed::run_sequential() { return run_with(1); }

ParallelRunResult ParallelTestbed::run_with(unsigned workers) {
  ParallelRunResult out;
  out.workers_used = sim::resolve_workers(config_.shards, workers);
  out.shards.resize(config_.shards);

  // Apps are built up front on the caller thread: the factory may touch
  // shared state, and PpeApp is move-only anyway.
  std::vector<ppe::PpeAppPtr> apps;
  apps.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    apps.push_back(app_factory_());
  }

  // Isolated shards are the degenerate lockstep case: one unbounded window,
  // nothing to exchange. Riding the same engine as the fabric testbeds keeps
  // one worker-pool discipline for both execution shapes.
  const auto start = std::chrono::steady_clock::now();
  sim::run_lockstep_rounds(
      config_.shards, workers,
      [&](std::size_t shard) {
        out.shards[shard] = run_shard(shard, std::move(apps[shard]));
      },
      [] { return false; });
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Barrier merge in shard order: the only ordering the combined numbers
  // ever see, so thread scheduling cannot leak into results.
  for (const auto& shard : out.shards) {
    out.combined.merge(shard.stats);
    ppe::merge_counter_snapshots(out.combined_counters, shard.app_counters);
    out.combined_metrics.merge(shard.metrics);
  }
  return out;
}

}  // namespace flexsfp::fabric
