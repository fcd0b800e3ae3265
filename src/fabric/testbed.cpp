#include "fabric/testbed.hpp"

#include <algorithm>

namespace flexsfp::fabric {

ModuleTestbed::ModuleTestbed(TestbedConfig config, ppe::PpeAppPtr app)
    : config_(std::move(config)) {
  sim_.flight().configure(config_.flight);
  module_ = std::make_unique<sfp::FlexSfpModule>(sim_, std::move(app),
                                                 config_.module);
  edge_sink_ = std::make_unique<Sink>(sim_);
  optical_sink_ = std::make_unique<Sink>(sim_);

  module_->set_egress_handler(sfp::FlexSfpModule::edge_port,
                              [this](net::PacketPtr packet) {
                                edge_sink_->handle_packet(std::move(packet));
                              });
  module_->set_egress_handler(
      sfp::FlexSfpModule::optical_port, [this](net::PacketPtr packet) {
        optical_sink_->handle_packet(std::move(packet));
      });

  edge_in_ = std::make_unique<sim::LambdaHandler>([this](net::PacketPtr p) {
    module_->inject(sfp::FlexSfpModule::edge_port, std::move(p));
  });
  optical_in_ = std::make_unique<sim::LambdaHandler>([this](net::PacketPtr p) {
    module_->inject(sfp::FlexSfpModule::optical_port, std::move(p));
  });

  // Fault injectors sit between the generators and the module ports, so
  // what a chaos experiment perturbs is exactly what arrives on the wire.
  if (config_.edge_faults) {
    edge_faults_ = std::make_unique<sim::FaultInjector>(
        sim_, *config_.edge_faults, *edge_in_, "fault.edge");
    if (config_.edge_faults->target_drop_prob > 0) {
      edge_faults_->set_target_filter(sfp::is_mgmt_frame);
    }
  }
  if (config_.optical_faults) {
    optical_faults_ = std::make_unique<sim::FaultInjector>(
        sim_, *config_.optical_faults, *optical_in_, "fault.optical");
    if (config_.optical_faults->target_drop_prob > 0) {
      optical_faults_->set_target_filter(sfp::is_mgmt_frame);
    }
  }

  sim::PacketHandler& edge_entry =
      edge_faults_ ? static_cast<sim::PacketHandler&>(*edge_faults_)
                   : *edge_in_;
  sim::PacketHandler& optical_entry =
      optical_faults_ ? static_cast<sim::PacketHandler&>(*optical_faults_)
                      : *optical_in_;
  if (config_.edge_traffic) {
    edge_gen_ = std::make_unique<TrafficGen>(sim_, *config_.edge_traffic,
                                             edge_entry);
  }
  if (config_.optical_traffic) {
    optical_gen_ = std::make_unique<TrafficGen>(
        sim_, *config_.optical_traffic, optical_entry);
  }
}

namespace {

DirectionResult direction_result(const TrafficGen* gen, const Sink& sink,
                                 sim::TimePs duration) {
  DirectionResult out;
  if (gen == nullptr) return out;
  out.sent_packets = gen->emitted().packets();
  out.received_packets = sink.received().packets();
  out.offered_gbps = gen->emitted().bits_per_second(duration) * 1e-9;
  out.delivered_gbps = sink.received().bits_per_second(duration) * 1e-9;
  out.loss_rate =
      out.sent_packets > 0
          ? 1.0 - double(out.received_packets) / double(out.sent_packets)
          : 0.0;
  out.latency_p50_ns = sim::to_nanos(sink.latency().percentile(50));
  out.latency_p99_ns = sim::to_nanos(sink.latency().percentile(99));
  return out;
}

}  // namespace

FabricLedger FabricLedger::from_snapshot(const obs::MetricSnapshot& snapshot) {
  FabricLedger ledger;
  ledger.sent = snapshot.sum("gen.emitted.packets");
  ledger.delivered = snapshot.sum("sink.received.packets");
  ledger.duplicated = snapshot.sum("fault.duplicated");
  ledger.fault_dropped = snapshot.sum("fault.dropped") +
                         snapshot.sum("fault.target_dropped") +
                         snapshot.sum("fault.flap_dropped");
  ledger.queue_drops = snapshot.sum("server.queue_drops");
  ledger.dark_drops = snapshot.sum("module.dark_drops");
  ledger.app_drops = snapshot.sum("engine.app_drops");
  ledger.control_punts = snapshot.sum("shell.control_punts");
  ledger.crosspoint_drops = snapshot.sum("fabric.xbar.crosspoint_drops");
  ledger.unrouted = snapshot.sum("fabric.xbar.unrouted");
  return ledger;
}

TestbedResult ModuleTestbed::run() {
  if (edge_gen_) edge_gen_->start();
  if (optical_gen_) optical_gen_->start();
  sim_.run();

  sim::TimePs duration = 0;
  if (config_.edge_traffic) {
    duration = std::max(duration, config_.edge_traffic->start +
                                      config_.edge_traffic->duration);
  }
  if (config_.optical_traffic) {
    duration = std::max(duration, config_.optical_traffic->start +
                                      config_.optical_traffic->duration);
  }
  if (duration == 0) duration = sim_.now();

  TestbedResult result;
  result.duration = duration;
  result.edge_to_optical =
      direction_result(edge_gen_.get(), *optical_sink_, duration);
  result.optical_to_edge =
      direction_result(optical_gen_.get(), *edge_sink_, duration);
  result.ppe_utilization =
      module_->shell().engine().utilization(duration);
  result.power = module_->power(duration);
  result.metrics = sim_.metrics().snapshot();
  result.ledger = FabricLedger::from_snapshot(result.metrics);
  return result;
}

PowerMeasurement run_power_measurement(ppe::PpeAppPtr app,
                                       sim::TimePs duration) {
  PowerMeasurement measurement;
  measurement.nic_only_w = hw::PowerModel::nic_base_watts();

  // Standard SFP: bidirectional line-rate stress ("receiving and
  // transmitting line-rate traffic").
  {
    sim::Simulation sim;
    sfp::StandardSfp sfp(sim);
    Sink edge_sink(sim);
    Sink optical_sink(sim);
    sfp.set_egress_handler(sfp::StandardSfp::edge_port,
                           [&edge_sink](net::PacketPtr p) {
                             edge_sink.handle_packet(std::move(p));
                           });
    sfp.set_egress_handler(sfp::StandardSfp::optical_port,
                           [&optical_sink](net::PacketPtr p) {
                             optical_sink.handle_packet(std::move(p));
                           });
    sim::LambdaHandler into_edge([&sfp](net::PacketPtr p) {
      sfp.inject(sfp::StandardSfp::edge_port, std::move(p));
    });
    sim::LambdaHandler into_optical([&sfp](net::PacketPtr p) {
      sfp.inject(sfp::StandardSfp::optical_port, std::move(p));
    });
    TrafficSpec spec;
    spec.fixed_size = 1518;
    spec.duration = duration;
    TrafficGen tx(sim, spec, into_edge);
    TrafficSpec rx_spec = spec;
    rx_spec.seed = 2;
    TrafficGen rx(sim, rx_spec, into_optical);
    tx.start();
    rx.start();
    sim.run();
    measurement.nic_plus_sfp_w =
        hw::PowerModel::nic_base_watts() +
        sfp.power(duration, sim::line_rate_10g).total();
  }

  // FlexSFP: same stress through the module running `app`.
  {
    TestbedConfig config;
    config.module.shell.kind = sfp::ShellKind::one_way_filter;
    TrafficSpec spec;
    spec.fixed_size = 1518;
    spec.duration = duration;
    config.edge_traffic = spec;
    TrafficSpec rx_spec = spec;
    rx_spec.seed = 2;
    config.optical_traffic = rx_spec;
    ModuleTestbed testbed(std::move(config), std::move(app));
    const auto result = testbed.run();
    measurement.nic_plus_flexsfp_w =
        hw::PowerModel::nic_base_watts() + result.power.total();
  }
  return measurement;
}

}  // namespace flexsfp::fabric
