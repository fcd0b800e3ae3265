// Ready-made experiment harnesses.
//
// ModuleTestbed: traffic sources on both sides of a single FlexSFP module,
// sinks capturing throughput/latency/loss — the setup behind the line-rate
// NAT test (§5.1) and the Figure 1 architecture comparison.
//
// run_power_measurement(): the §5 power experiment — a Thunderbolt NIC's
// draw alone, with a standard SFP under line-rate stress, and with a
// FlexSFP running an application.
#pragma once

#include <memory>
#include <optional>

#include "apps/nat.hpp"
#include "fabric/traffic_gen.hpp"
#include "sfp/flexsfp.hpp"
#include "sfp/standard_sfp.hpp"
#include "sim/fault_injector.hpp"

namespace flexsfp::fabric {

struct TestbedConfig {
  sfp::FlexSfpConfig module{};
  std::optional<TrafficSpec> edge_traffic;     // injected at the edge port
  std::optional<TrafficSpec> optical_traffic;  // injected at the optical port
  /// Fault process applied to traffic arriving at each port (chaos
  /// experiments). When target_drop_prob is set the injector targets
  /// management frames. Seeds are re-derived per shard by ParallelTestbed.
  std::optional<sim::FaultSpec> edge_faults;
  std::optional<sim::FaultSpec> optical_faults;
  /// Per-packet flight-recorder setup for the testbed's simulation.
  obs::FlightRecorderConfig flight{};

  TestbedConfig() {
    module.boot_at_start = false;  // usable at t = 0 for experiments
  }
};

struct DirectionResult {
  std::uint64_t sent_packets = 0;
  std::uint64_t received_packets = 0;
  double offered_gbps = 0;
  double delivered_gbps = 0;
  double loss_rate = 0;
  double latency_p50_ns = 0;
  double latency_p99_ns = 0;
};

/// The zero-black-hole equation every harness (ModuleTestbed, ParallelTestbed
/// and both fabric engines) closes over its (merged) registry snapshot: all
/// the generators injected, plus fault duplicates, equals all delivered plus
/// every named drop counter along the path. Frames injected around the
/// generators (management pings, control responses) are not a term.
struct FabricLedger {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t duplicated = 0;        // fault-injected extra packets
  std::uint64_t fault_dropped = 0;     // random + targeted + flap loss
  std::uint64_t queue_drops = 0;       // PPE ingress + egress arbiter FIFOs
  std::uint64_t dark_drops = 0;
  std::uint64_t app_drops = 0;
  std::uint64_t control_punts = 0;
  std::uint64_t crosspoint_drops = 0;
  std::uint64_t unrouted = 0;

  [[nodiscard]] std::uint64_t injected() const { return sent + duplicated; }
  [[nodiscard]] std::uint64_t accounted() const {
    return delivered + fault_dropped + queue_drops + dark_drops + app_drops +
           control_punts + crosspoint_drops + unrouted;
  }
  [[nodiscard]] bool balanced() const { return injected() == accounted(); }

  /// Read the equation's terms out of a (merged) snapshot.
  [[nodiscard]] static FabricLedger from_snapshot(
      const obs::MetricSnapshot& snapshot);
};

struct TestbedResult {
  DirectionResult edge_to_optical;
  DirectionResult optical_to_edge;
  double ppe_utilization = 0;
  hw::PowerBreakdown power{};
  sim::TimePs duration = 0;
  /// Every registry series of the run (components + app counters).
  obs::MetricSnapshot metrics;
  FabricLedger ledger;  // read from `metrics`
};

/// One module, a source and sink per direction. Owns the simulation.
class ModuleTestbed {
 public:
  ModuleTestbed(TestbedConfig config, ppe::PpeAppPtr app);

  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] sfp::FlexSfpModule& module() { return *module_; }
  [[nodiscard]] Sink& edge_sink() { return *edge_sink_; }
  [[nodiscard]] Sink& optical_sink() { return *optical_sink_; }
  /// Configured fault injectors; nullptr when the port has none.
  [[nodiscard]] sim::FaultInjector* edge_faults() {
    return edge_faults_.get();
  }
  [[nodiscard]] sim::FaultInjector* optical_faults() {
    return optical_faults_.get();
  }

  /// Start the configured sources, run to quiescence, collect results.
  [[nodiscard]] TestbedResult run();

 private:
  TestbedConfig config_;
  sim::Simulation sim_;
  std::unique_ptr<sfp::FlexSfpModule> module_;
  std::unique_ptr<Sink> edge_sink_;     // receives optical -> edge traffic
  std::unique_ptr<Sink> optical_sink_;  // receives edge -> optical traffic
  std::unique_ptr<sim::LambdaHandler> edge_in_;
  std::unique_ptr<sim::LambdaHandler> optical_in_;
  std::unique_ptr<sim::FaultInjector> edge_faults_;
  std::unique_ptr<sim::FaultInjector> optical_faults_;
  std::unique_ptr<TrafficGen> edge_gen_;
  std::unique_ptr<TrafficGen> optical_gen_;
};

/// The §5 power experiment's three operating points, watts.
struct PowerMeasurement {
  double nic_only_w = 0;
  double nic_plus_sfp_w = 0;
  double nic_plus_flexsfp_w = 0;

  [[nodiscard]] double sfp_delta_w() const {
    return nic_plus_sfp_w - nic_only_w;
  }
  [[nodiscard]] double flexsfp_delta_w() const {
    return nic_plus_flexsfp_w - nic_only_w;
  }
};

/// Reproduce the paper's measurement: line-rate RX+TX stress through a
/// standard SFP, then through a FlexSFP running `app` (defaults to the NAT
/// case study on the One-Way-Filter shell).
[[nodiscard]] PowerMeasurement run_power_measurement(
    ppe::PpeAppPtr app = std::make_unique<apps::StaticNat>(),
    sim::TimePs duration = 10'000'000'000);  // 10 ms of stress

}  // namespace flexsfp::fabric
