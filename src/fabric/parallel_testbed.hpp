// Flow-sharded parallel testbed execution.
//
// The paper's scaling argument (§4–5) is that FlexSFP modules are
// independent: one module per port, each processing its own slice of
// traffic with no shared state. This runner exploits exactly that — traffic
// is partitioned by module/port (the shard key), every shard gets its own
// Simulation, FlexSfpModule, TrafficGen and Rng stream, shards run on
// worker threads, and each shard's registry snapshot and sink latency
// histograms are merged at the join barrier *in shard order*. Results are
// therefore bit-identical to the sequential run(1), which tests use as the
// oracle. The merged snapshot is the run's only count: sent, received,
// every drop class and every app counter are series in it.
#pragma once

#include <functional>
#include <vector>

#include "fabric/testbed.hpp"
#include "sim/stats.hpp"

namespace flexsfp::fabric {

/// Builds the app a shard's module runs. Called once per shard, on the
/// caller thread (before fan-out), so it need not be thread-safe — but each
/// call must return an identically configured instance.
using AppFactory = std::function<ppe::PpeAppPtr()>;

struct ParallelTestbedConfig {
  /// One FlexSFP module (= one switch port) per shard.
  std::size_t shards = 8;
  /// Every per-shard Rng stream derives from this via splitmix hashing —
  /// never seed + shard_id (adjacent mt19937_64 seeds correlate).
  std::uint64_t base_seed = 1;
  /// Cloned per shard. Traffic seeds, flow-space addresses and MACs are
  /// re-derived per shard so each module sees its own traffic slice.
  TestbedConfig prototype{};
};

/// Everything one shard measured.
struct ShardOutcome {
  std::size_t shard = 0;
  /// The shard's registry snapshot re-labeled {shard=<id>}; shards build
  /// identical topologies, so the label is what keeps series distinct.
  obs::MetricSnapshot metrics;
  /// Both sinks' end-to-end latency, edge sink first.
  sim::LatencyHistogram latency;
  /// Simulation events the shard executed.
  std::uint64_t events = 0;
  /// The shard's sampled stage-hop events. Sampling keys off packet ids
  /// only, so this is bit-identical for any worker count.
  std::vector<obs::HopEvent> flight;
};

/// Shaped like FabricRunResult: counts live in `metrics`; latency and
/// events stay plain fields until the registry has a histogram kind.
struct ParallelRunResult {
  std::vector<ShardOutcome> shards;
  /// Key-wise merge of every shard's labeled snapshot, in shard order —
  /// identical for any worker count, including the sequential oracle run(1).
  obs::MetricSnapshot metrics;
  /// Shard latencies merged in shard order (the mean is a floating-point
  /// sum, so the fixed order is what keeps it bit-identical).
  sim::LatencyHistogram latency;
  std::uint64_t events = 0;
  unsigned workers_used = 1;
  double wall_seconds = 0;
};

class ParallelTestbed {
 public:
  ParallelTestbed(ParallelTestbedConfig config, AppFactory app_factory);

  /// Run every shard with up to `workers` threads (0 = one per hardware
  /// thread, 1 = the sequential oracle) and merge. Callable repeatedly;
  /// every call replays the identical experiment.
  [[nodiscard]] ParallelRunResult run(unsigned workers);

  /// The traffic spec shard `shard` runs for a direction: stream-derived
  /// seed plus a disjoint flow-space slice. `direction` disambiguates the
  /// edge (0) and optical (1) generators of one module.
  [[nodiscard]] static TrafficSpec shard_spec(const TrafficSpec& prototype,
                                              std::uint64_t base_seed,
                                              std::size_t shard,
                                              unsigned direction);

  /// The fault spec shard `shard` runs for a direction. Fault streams are
  /// salted so they never collide with the traffic streams derived from the
  /// same base seed — adding an injector must not perturb the traffic a
  /// shard generates.
  [[nodiscard]] static sim::FaultSpec shard_fault_spec(
      const sim::FaultSpec& prototype, std::uint64_t base_seed,
      std::size_t shard, unsigned direction);

 private:
  [[nodiscard]] ShardOutcome run_shard(std::size_t shard,
                                       ppe::PpeAppPtr app) const;

  ParallelTestbedConfig config_;
  AppFactory app_factory_;
};

}  // namespace flexsfp::fabric
