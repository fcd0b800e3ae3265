#include "apps/fault_monitor.hpp"

#include "hw/resource_model.hpp"

namespace flexsfp::apps {

net::Bytes FaultMonitorConfig::serialize() const {
  net::Bytes out(24);
  net::write_be64(out, 0, static_cast<std::uint64_t>(burst_window_ps));
  net::write_be64(out, 8, burst_threshold_bps);
  net::write_be64(out, 16, static_cast<std::uint64_t>(silence_threshold_ps));
  return out;
}

std::optional<FaultMonitorConfig> FaultMonitorConfig::parse(
    net::BytesView data) {
  if (data.size() < 24) return std::nullopt;
  FaultMonitorConfig config;
  config.burst_window_ps = static_cast<std::int64_t>(net::read_be64(data, 0));
  config.burst_threshold_bps = net::read_be64(data, 8);
  config.silence_threshold_ps =
      static_cast<std::int64_t>(net::read_be64(data, 16));
  if (config.burst_window_ps <= 0) return std::nullopt;
  return config;
}

FaultMonitor::FaultMonitor(FaultMonitorConfig config)
    : config_(config),
      rate_(config.burst_window_ps),
      stats_("faultmon_stats", 1) {}

ppe::Verdict FaultMonitor::process(ppe::PacketContext& ctx) {
  const std::int64_t now = ctx.packet().ingress_time_ps();

  if (last_packet_ps_ >= 0 &&
      now - last_packet_ps_ >= config_.silence_threshold_ps) {
    ++silences_;
  }
  last_packet_ps_ = now;

  rate_.record(now, ctx.packet().wire_size());
  // A completed window above threshold counts once.
  const double window_bps = rate_.last_window_bps();
  if (window_bps != last_reported_window_bps_) {
    if (window_bps > double(config_.burst_threshold_bps)) ++microbursts_;
    last_reported_window_bps_ = window_bps;
  }

  stats_.add(0, ctx.packet().size());
  return ppe::Verdict::forward;
}

hw::ResourceUsage FaultMonitor::resource_usage(
    const hw::DatapathConfig& datapath) const {
  using RM = hw::ResourceModel;
  const std::uint32_t w = datapath.width_bits;
  hw::ResourceUsage usage;
  usage += RM::timestamp_unit();
  usage += RM::counter_bank(16, 64);
  usage += RM::csr_block(12);
  usage += RM::control_fsm(8, w);
  usage += RM::stream_fifo(128, 72);
  return usage;
}

std::vector<ppe::CounterSnapshot> FaultMonitor::counters() const {
  return {
      {"faultmon_stats", 0, stats_.packets(0), stats_.bytes(0)},
      {"faultmon_events", 0, microbursts_, 0},
      {"faultmon_events", 1, silences_, 0},
  };
}

ppe::StageProfile FaultMonitor::profile() const {
  ppe::StageProfile profile;
  profile.stage = name();
  // Watches sizes and timestamps only; no header dependence.
  profile.counter_banks.push_back({"faultmon_stats", stats_.size(), 0});
  profile.pipeline_depth_cycles = pipeline_latency_cycles();
  return profile;
}

}  // namespace flexsfp::apps
