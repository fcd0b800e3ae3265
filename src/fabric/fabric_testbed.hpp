// Multi-module experiment harnesses over a Topology: N FlexSFP modules,
// one crosspoint-queued Crossbar, cable → switch → cable per flow.
//
// Two engines consume the same Topology:
//
//   * FabricTestbed — one Simulation owns everything; modules and the
//     crossbar exchange packets through ordinary scheduled events. The
//     single-clock reference for ledger cross-checks.
//   * FabricParallelTestbed — one Simulation ("world") per module plus one
//     for the crossbar, advanced in conservative-sync windows: the link
//     propagation delay is the lookahead, so every world can safely run to
//     (min next event or boundary arrival across worlds) + delay. A packet
//     captured at a world's uplink during window r goes into that world's
//     outbox for r (two buffers, alternating by round parity), still a
//     PacketPtr of its source world, with a timestamp provably ≥ the next
//     window start, and the source's thread lists the world among the
//     destination's senders for r. At the start of window r + 1 each
//     destination reads its sender lists, pulls the records addressed to it
//     from those outboxes, and clones each frame into its own pool; at the
//     start of window r + 2 the source clears that buffer, releasing its
//     packets into its own pool on its own thread. So no refcount or free
//     list is ever touched by two threads, and a round has no serial step:
//     each thread computes the next window bound from the earliest pending
//     times every thread published. Batches are applied in (arrival, source
//     world, capture seq) order, so results are bit-identical for any
//     worker count. DESIGN.md §11 has the proof sketch.
//
// Either way the run ends with a loss ledger: every packet the generators
// (plus fault duplication) injected is delivered or sits in a named drop
// counter — the fabric never black-holes, even across shard boundaries.
#pragma once

#include <memory>
#include <vector>

#include "fabric/crossbar.hpp"
#include "fabric/parallel_testbed.hpp"
#include "fabric/topology.hpp"
#include "sim/link.hpp"

namespace flexsfp::fabric {

namespace detail {

/// One module with its edge-side endpoints and its uplink toward the
/// fabric, buildable inside any Simulation (the engines differ only in what
/// `to_fabric` does with a packet that finished the uplink). The packet
/// chain: edge gen → module (edge port) → PPE → optical egress →
/// [link fault injector] → uplink serialization at link rate → to_fabric.
/// Propagation delay is NOT applied here — the engine owns it, because for
/// the parallel engine it is exactly the piece that crosses worlds.
struct ModuleRig {
  ModuleRig(sim::Simulation& sim, const Topology& topo, std::size_t index,
            ppe::PpeAppPtr app, std::function<void(net::PacketPtr)> to_fabric);

  std::size_t index = 0;
  std::unique_ptr<sfp::FlexSfpModule> module;
  std::unique_ptr<Sink> edge_sink;
  std::unique_ptr<sim::LambdaHandler> edge_in;
  std::unique_ptr<sim::LambdaHandler> uplink_capture;
  std::unique_ptr<sim::Link> uplink;
  std::unique_ptr<sim::FaultInjector> link_faults;  // null when unfaulted
  std::unique_ptr<TrafficGen> gen;
};

}  // namespace detail

/// What one module's endpoints measured. Sent counts the module's own edge
/// generator; received/latency count what arrived at the module's edge sink
/// — traffic from whichever module targets it, so sent_i == received_i only
/// when the target map is a permutation and nothing dropped.
struct FabricModuleResult {
  std::uint64_t sent_packets = 0;
  std::uint64_t received_packets = 0;
  double delivered_gbps = 0;
  double latency_p50_ns = 0;
  double latency_p99_ns = 0;
};

struct FabricRunResult {
  std::vector<FabricModuleResult> modules;
  /// Single-sim engine: the simulation's snapshot. Parallel engine: every
  /// world's snapshot labeled {shard=<module>} / {shard=xbar}, merged in
  /// world order — the object the bit-identical property tests compare.
  obs::MetricSnapshot metrics;
  FabricLedger ledger;
  sim::TimePs duration = 0;
  std::uint64_t events = 0;
  /// Conservative-sync windows executed (0 for the single-sim engine).
  std::uint64_t rounds = 0;
  unsigned workers_used = 1;
  /// Host seconds of the simulation itself on either engine (the one
  /// run() or the lockstep rounds): no world building, results or snapshots.
  double wall_seconds = 0;
};

/// The sequential reference engine: everything in one Simulation.
class FabricTestbed {
 public:
  /// `app_factory` defaults to the NAT case study (forward-on-miss).
  explicit FabricTestbed(Topology topology, AppFactory app_factory = {});

  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] Crossbar& crossbar() { return *xbar_; }
  [[nodiscard]] sfp::FlexSfpModule& module(std::size_t i) {
    return *rigs_.at(i)->module;
  }
  [[nodiscard]] detail::ModuleRig& rig(std::size_t i) { return *rigs_.at(i); }
  [[nodiscard]] const Topology& topology() const { return topo_; }

  /// Start every generator, run to quiescence, collect results.
  [[nodiscard]] FabricRunResult run();

 private:
  Topology topo_;
  sim::Simulation sim_;
  std::unique_ptr<Crossbar> xbar_;
  std::vector<std::unique_ptr<detail::ModuleRig>> rigs_;
};

/// The conservatively synchronized engine: one world per module plus a
/// crossbar world, lockstep windows, deterministic for any worker count.
class FabricParallelTestbed {
 public:
  explicit FabricParallelTestbed(Topology topology, AppFactory app_factory = {});

  /// Build fresh worlds and run with up to `workers` threads (0 = one per
  /// hardware thread, 1 = sequential oracle). Callable repeatedly; every
  /// call replays the identical experiment.
  [[nodiscard]] FabricRunResult run(unsigned workers);

  [[nodiscard]] const Topology& topology() const { return topo_; }

 private:
  Topology topo_;
  AppFactory app_factory_;
};

}  // namespace flexsfp::fabric
