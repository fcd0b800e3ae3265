#include "apps/telemetry.hpp"

#include "hw/resource_model.hpp"

namespace flexsfp::apps {

// --- shim wire format -------------------------------------------------------

std::optional<TelemetryShim> TelemetryShim::parse(net::BytesView data,
                                                  std::size_t offset) {
  if (offset + size() > data.size()) return std::nullopt;
  TelemetryShim shim;
  shim.device_id = net::read_be16(data, offset);
  shim.ingress_port = data[offset + 2];
  shim.queue_depth = data[offset + 3];
  shim.timestamp_ns = (std::uint64_t{net::read_be16(data, offset + 4)} << 32) |
                      net::read_be32(data, offset + 6);
  shim.inner_ether_type = net::read_be16(data, offset + 10);
  return shim;
}

void TelemetryShim::serialize_to(net::BytesSpan data,
                                 std::size_t offset) const {
  net::write_be16(data, offset, device_id);
  net::write_u8(data, offset + 2, ingress_port);
  net::write_u8(data, offset + 3, queue_depth);
  net::write_be16(data, offset + 4,
                  static_cast<std::uint16_t>((timestamp_ns >> 32) & 0xffff));
  net::write_be32(data, offset + 6,
                  static_cast<std::uint32_t>(timestamp_ns & 0xffffffff));
  net::write_be16(data, offset + 10, inner_ether_type);
}

bool push_telemetry_shim(net::Bytes& frame, const TelemetryShim& shim) {
  auto eth = net::EthernetHeader::parse(frame, 0);
  if (!eth) return false;
  TelemetryShim wire = shim;
  wire.inner_ether_type = eth->ether_type;
  eth->ether_type = telemetry_ether_type;
  frame.insert(frame.begin() + net::EthernetHeader::size(),
               TelemetryShim::size(), 0);
  eth->serialize_to(frame, 0);
  wire.serialize_to(frame, net::EthernetHeader::size());
  return true;
}

std::optional<TelemetryShim> pop_telemetry_shim(net::Bytes& frame) {
  auto eth = net::EthernetHeader::parse(frame, 0);
  if (!eth || eth->ether_type != telemetry_ether_type) return std::nullopt;
  const auto shim = TelemetryShim::parse(frame, net::EthernetHeader::size());
  if (!shim) return std::nullopt;
  eth->ether_type = shim->inner_ether_type;
  frame.erase(frame.begin() + net::EthernetHeader::size(),
              frame.begin() + net::EthernetHeader::size() +
                  TelemetryShim::size());
  eth->serialize_to(frame, 0);
  return shim;
}

// --- IntStamper -------------------------------------------------------------

net::Bytes IntStamperConfig::serialize() const {
  net::Bytes out(3);
  out[0] = static_cast<std::uint8_t>(role);
  net::write_be16(out, 1, device_id);
  return out;
}

std::optional<IntStamperConfig> IntStamperConfig::parse(net::BytesView data) {
  if (data.size() < 3 || data[0] > 1) return std::nullopt;
  IntStamperConfig config;
  config.role = static_cast<StamperRole>(data[0]);
  config.device_id = net::read_be16(data, 1);
  return config;
}

IntStamper::IntStamper(IntStamperConfig config)
    : config_(config), stats_("int_stats", 2) {}

ppe::Verdict IntStamper::process(ppe::PacketContext& ctx) {
  if (config_.role == StamperRole::source) {
    TelemetryShim shim;
    shim.device_id = config_.device_id;
    shim.ingress_port =
        static_cast<std::uint8_t>(ctx.packet().ingress_port());
    shim.timestamp_ns = static_cast<std::uint64_t>(
        ctx.packet().ingress_time_ps() / 1000);
    if (push_telemetry_shim(ctx.bytes(), shim)) {
      ctx.invalidate_parse();
      stats_.add(0, ctx.packet().size());
    } else {
      stats_.add(1, ctx.packet().size());
    }
    return ppe::Verdict::forward;
  }

  const auto shim = pop_telemetry_shim(ctx.bytes());
  if (shim) {
    ctx.invalidate_parse();
    stats_.add(0, ctx.packet().size());
    ++sink_samples_;
    const auto now_ns =
        static_cast<double>(ctx.packet().ingress_time_ps()) / 1000.0;
    sink_latency_sum_ns_ += now_ns - double(shim->timestamp_ns);
  } else {
    stats_.add(1, ctx.packet().size());
  }
  return ppe::Verdict::forward;
}

hw::ResourceUsage IntStamper::resource_usage(
    const hw::DatapathConfig& datapath) const {
  using RM = hw::ResourceModel;
  const std::uint32_t w = datapath.width_bits;
  hw::ResourceUsage usage;
  usage += RM::parser(14, w);
  usage += RM::timestamp_unit();
  usage += RM::header_shift_unit(TelemetryShim::size(), w);
  usage += RM::deparser(w);
  usage += RM::csr_block(8);
  usage += RM::stream_fifo(128, 72);
  usage += RM::stream_fifo(128, 72);
  usage += RM::control_fsm(6, w);
  return usage;
}

std::vector<ppe::CounterSnapshot> IntStamper::counters() const {
  return stats_.snapshot();
}

ppe::StageProfile IntStamper::profile() const {
  using ppe::HeaderKind;
  ppe::StageProfile profile;
  profile.stage = name();
  profile.reads = ppe::header_bit(HeaderKind::ethernet);
  if (config_.role == StamperRole::source) {
    profile.produces = ppe::header_bit(HeaderKind::telemetry_shim);
  } else {
    profile.reads |= ppe::header_bit(HeaderKind::telemetry_shim);
    profile.consumes = ppe::header_bit(HeaderKind::telemetry_shim);
  }
  // Shim insertion/removal shifts the stream behind the Ethernet header.
  profile.match_action_cycles = 2;
  profile.counter_banks.push_back({"int_stats", stats_.size(), 1});
  profile.pipeline_depth_cycles = pipeline_latency_cycles();
  return profile;
}

// --- FlowStats --------------------------------------------------------------

net::Bytes FlowStatsConfig::serialize() const {
  net::Bytes out(20);
  net::write_be32(out, 0, cache_capacity);
  net::write_be64(out, 4, static_cast<std::uint64_t>(idle_timeout_ps));
  net::write_be64(out, 12, static_cast<std::uint64_t>(active_timeout_ps));
  return out;
}

std::optional<FlowStatsConfig> FlowStatsConfig::parse(net::BytesView data) {
  if (data.size() < 20) return std::nullopt;
  FlowStatsConfig config;
  config.cache_capacity = net::read_be32(data, 0);
  config.idle_timeout_ps =
      static_cast<std::int64_t>(net::read_be64(data, 4));
  config.active_timeout_ps =
      static_cast<std::int64_t>(net::read_be64(data, 12));
  if (config.cache_capacity == 0) return std::nullopt;
  return config;
}

FlowStats::FlowStats(FlowStatsConfig config)
    : config_(config),
      // key = 104-bit tuple pre-hashed to 64 bits; value = slot index.
      // Resource accounting reflects the real on-chip record width.
      index_("flow_index", config.cache_capacity, 104, 128),
      records_(config.cache_capacity),
      stats_("flow_stats", 2) {
  free_slots_.reserve(config_.cache_capacity);
  for (std::size_t i = config_.cache_capacity; i > 0; --i) {
    free_slots_.push_back(i - 1);
  }
}

ppe::Verdict FlowStats::process(ppe::PacketContext& ctx) {
  const auto& parsed = ctx.parsed();
  const auto tuple = parsed.five_tuple();
  if (!tuple) return ppe::Verdict::forward;

  const std::uint64_t key = net::hash_tuple(*tuple);
  const std::int64_t now = ctx.packet().ingress_time_ps();
  const std::uint8_t flags = parsed.outer.tcp ? parsed.outer.tcp->flags : 0;

  const auto slot_hit = index_.lookup(key);
  if (slot_hit) {
    FlowRecord& record = records_[static_cast<std::size_t>(*slot_hit)];
    ++record.packets;
    record.bytes += ctx.packet().size();
    record.last_seen_ps = now;
    record.tcp_flags_seen |= flags;
    stats_.add(0, ctx.packet().size());
    return ppe::Verdict::forward;
  }

  if (free_slots_.empty()) {
    ++rejections_;
    stats_.add(1, ctx.packet().size());
    return ppe::Verdict::forward;
  }
  const std::size_t slot = free_slots_.back();
  if (!index_.insert(key, slot)) {  // bucket overflow
    ++rejections_;
    stats_.add(1, ctx.packet().size());
    return ppe::Verdict::forward;
  }
  free_slots_.pop_back();
  records_[slot] = FlowRecord{.tuple = *tuple,
                              .packets = 1,
                              .bytes = ctx.packet().size(),
                              .first_seen_ps = now,
                              .last_seen_ps = now,
                              .tcp_flags_seen = flags};
  stats_.add(0, ctx.packet().size());
  return ppe::Verdict::forward;
}

std::size_t FlowStats::active_flows() const {
  return config_.cache_capacity - free_slots_.size();
}

std::vector<FlowRecord> FlowStats::sweep(std::int64_t now_ps) {
  std::vector<FlowRecord> exported;
  std::vector<std::pair<std::uint64_t, std::size_t>> to_remove;
  index_.for_each([&](std::uint64_t key, std::uint64_t slot) {
    const FlowRecord& record = records_[static_cast<std::size_t>(slot)];
    const bool idle = now_ps - record.last_seen_ps >= config_.idle_timeout_ps;
    const bool aged = now_ps - record.first_seen_ps >= config_.active_timeout_ps;
    if (idle || aged) to_remove.emplace_back(key, slot);
  });
  for (const auto& [key, slot] : to_remove) {
    exported.push_back(records_[slot]);
    index_.erase(key);
    free_slots_.push_back(slot);
  }
  return exported;
}

std::vector<FlowRecord> FlowStats::export_all() {
  std::vector<FlowRecord> exported;
  std::vector<std::pair<std::uint64_t, std::size_t>> all;
  index_.for_each([&all](std::uint64_t key, std::uint64_t slot) {
    all.emplace_back(key, slot);
  });
  for (const auto& [key, slot] : all) {
    exported.push_back(records_[slot]);
    index_.erase(key);
    free_slots_.push_back(slot);
  }
  return exported;
}

hw::ResourceUsage FlowStats::resource_usage(
    const hw::DatapathConfig& datapath) const {
  using RM = hw::ResourceModel;
  const std::uint32_t w = datapath.width_bits;
  hw::ResourceUsage usage;
  usage += RM::parser(38, w);
  usage += RM::exact_match_table(config_.cache_capacity, 104, 128);
  usage += RM::deparser(w);
  usage += RM::csr_block(16);
  usage += RM::stream_fifo(128, 72);
  usage += RM::stream_fifo(128, 72);
  usage += RM::control_fsm(12, w);
  return usage;
}

std::vector<ppe::CounterSnapshot> FlowStats::counters() const {
  return stats_.snapshot();
}

ppe::StageProfile FlowStats::profile() const {
  using ppe::HeaderKind;
  ppe::StageProfile profile;
  profile.stage = name();
  profile.reads = ppe::header_set(
      {HeaderKind::ethernet, HeaderKind::ipv4, HeaderKind::tcp,
       HeaderKind::udp});
  profile.tables.push_back(ppe::TableProfile{
      .name = index_.name(),
      .kind = ppe::TableKind::exact_match,
      .capacity = index_.capacity(),
      .key_bits = index_.key_bits(),
      .value_bits = index_.value_bits(),
      .key_sources = ppe::header_set(
          {HeaderKind::ipv4, HeaderKind::tcp, HeaderKind::udp})});
  profile.counter_banks.push_back({"flow_stats", stats_.size(), 1});
  profile.pipeline_depth_cycles = pipeline_latency_cycles();
  return profile;
}

// --- Sampler ----------------------------------------------------------------

net::Bytes SamplerConfig::serialize() const {
  net::Bytes out(4);
  net::write_be32(out, 0, rate);
  return out;
}

std::optional<SamplerConfig> SamplerConfig::parse(net::BytesView data) {
  if (data.size() < 4) return std::nullopt;
  SamplerConfig config;
  config.rate = net::read_be32(data, 0);
  if (config.rate == 0) return std::nullopt;
  return config;
}

Sampler::Sampler(SamplerConfig config) : config_(config) {}

ppe::Verdict Sampler::process(ppe::PacketContext& ctx) {
  if (++counter_ >= config_.rate) {
    counter_ = 0;
    ++sampled_;
    ctx.request_mirror();
  }
  return ppe::Verdict::forward;
}

hw::ResourceUsage Sampler::resource_usage(
    const hw::DatapathConfig& datapath) const {
  using RM = hw::ResourceModel;
  const std::uint32_t w = datapath.width_bits;
  hw::ResourceUsage usage;
  usage += RM::csr_block(4);
  usage += RM::control_fsm(4, w);
  usage += RM::stream_fifo(128, 72);
  return usage;
}

ppe::StageProfile Sampler::profile() const {
  ppe::StageProfile profile;
  profile.stage = name();
  // Pure packet-count sampling: no header dependence at all.
  profile.pipeline_depth_cycles = pipeline_latency_cycles();
  return profile;
}

}  // namespace flexsfp::apps
