// The Packet Processing Engine execution model.
//
// The engine streams packets through the app on a `DatapathConfig` bus:
// a packet of N bytes occupies the pipe for ceil(N / width) bus beats
// (back-to-back packets overlap in the pipeline, so occupancy — not
// pipeline depth — bounds throughput), and leaves the engine
// pipeline_latency_cycles() later. This reproduces the paper's line-rate
// arithmetic: 64 bit x 156.25 MHz = 10 Gb/s of bus bandwidth.
//
// A forwarded packet's drain is not an event of its own. At the verdict the
// engine reserves the slot a drain event would have had, (verdict time +
// drain, seq), and hands the packet and that slot to the forward handler
// at once; the egress arbiter admits it as of the slot (DESIGN.md §9).
#pragma once

#include <functional>

#include "hw/clock.hpp"
#include "ppe/app.hpp"
#include "sim/link.hpp"

namespace flexsfp::ppe {

class Engine final : public sim::QueuedServer {
 public:
  /// `queue_capacity` models the ingress store-and-forward FIFO in packets.
  Engine(sim::Simulation& sim, PpeAppPtr app, hw::DatapathConfig datapath,
         std::size_t queue_capacity = 64);
  ~Engine() override;

  /// Where forwarded packets go (set by the architecture shell), called at
  /// the verdict with the slot at which the packet leaves the pipeline.
  using ForwardHandler = std::function<void(net::PacketPtr, sim::Slot)>;
  void set_forward_handler(ForwardHandler handler) {
    forward_ = std::move(handler);
  }
  [[nodiscard]] const ForwardHandler& forward_handler() const {
    return forward_;
  }
  /// Where control-plane punts go.
  void set_control_handler(std::function<void(net::PacketPtr)> handler) {
    control_ = std::move(handler);
  }

  [[nodiscard]] PpeApp& app() { return *app_; }
  [[nodiscard]] const PpeApp& app() const { return *app_; }
  /// Swap the running application (reconfiguration); packets already queued
  /// are processed by the new app, as after a partial-reconfig swap.
  void replace_app(PpeAppPtr app);

  [[nodiscard]] const hw::DatapathConfig& datapath() const { return datapath_; }

  // Verdict tallies live in the registry as engine.forwarded /
  // engine.app_drops / engine.punted, labeled {app=<name>,stage=<ppe>}; app
  // swaps open a fresh series per app name, and these accessors sum across
  // every app this engine has run.
  [[nodiscard]] std::uint64_t forwarded() const { return sum(forwarded_ids_); }
  [[nodiscard]] std::uint64_t dropped_by_app() const {
    return sum(dropped_ids_);
  }
  [[nodiscard]] std::uint64_t punted() const { return sum(punted_ids_); }
  /// Queue-full losses are on the base class: drops().

 protected:
  [[nodiscard]] sim::TimePs service_time(const net::Packet& packet) override;
  void finish(net::PacketPtr packet) override;

 private:
  /// (Re)intern the verdict series for the current app's label set.
  void bind_app_series();
  /// Push the live app's CounterBank snapshots into a registry snapshot.
  void collect_counter_banks(obs::MetricSnapshot& snap) const;
  [[nodiscard]] std::uint64_t sum(const std::vector<obs::MetricId>& ids) const;

  PpeAppPtr app_;
  hw::DatapathConfig datapath_;
  // One-entry memo over the size -> service-time arithmetic (cycles_to_time
  // divides to derive the cycle period); sizes repeat across packets.
  std::size_t last_size_ = ~std::size_t{0};
  sim::TimePs last_service_ = 0;
  // Pipeline-drain latency is a property of the app, not the packet; cached
  // at bind time so finish() doesn't redo the cycles_to_time division per
  // packet.
  sim::TimePs drain_ = 0;
  ForwardHandler forward_;
  std::function<void(net::PacketPtr)> control_;
  obs::MetricId forwarded_id_;
  obs::MetricId dropped_id_;
  obs::MetricId punted_id_;
  std::vector<obs::MetricId> forwarded_ids_;
  std::vector<obs::MetricId> dropped_ids_;
  std::vector<obs::MetricId> punted_ids_;
  obs::MetricRegistry::CollectorToken collector_token_ = 0;
};

}  // namespace flexsfp::ppe
