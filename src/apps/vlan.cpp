#include "apps/vlan.hpp"

#include "hw/resource_model.hpp"
#include "net/builder.hpp"

namespace flexsfp::apps {

net::Bytes VlanConfig::serialize() const {
  net::Bytes out(5);
  out[0] = static_cast<std::uint8_t>(mode);
  net::write_be16(out, 1, vid);
  out[3] = pcp;
  out[4] = strict ? 1 : 0;
  return out;
}

std::optional<VlanConfig> VlanConfig::parse(net::BytesView data) {
  if (data.size() < 5 || data[0] > 3) return std::nullopt;
  VlanConfig config;
  config.mode = static_cast<VlanMode>(data[0]);
  config.vid = net::read_be16(data, 1) & 0x0fff;
  config.pcp = data[3] & 0x7;
  config.strict = data[4] != 0;
  return config;
}

VlanTagger::VlanTagger(VlanConfig config)
    : config_(config),
      translation_("vid_translation", 4096, 12, 12),
      stats_("vlan_stats", 3) {}

ppe::Verdict VlanTagger::process(ppe::PacketContext& ctx) {
  const auto& parsed = ctx.parsed();
  if (!parsed.ok() && parsed.error != net::ParseError::bad_ip_version) {
    // Structurally broken frames pass through untouched; tagging garbage
    // would only obscure it.
    stats_.add(1, ctx.packet().size());
    return ppe::Verdict::forward;
  }
  const bool tagged = !parsed.vlan_tags.empty();

  switch (config_.mode) {
    case VlanMode::push:
      net::push_vlan(ctx.bytes(), config_.vid, config_.pcp);
      ctx.invalidate_parse();
      stats_.add(0, ctx.packet().size());
      return ppe::Verdict::forward;

    case VlanMode::qinq_push:
      net::push_vlan(ctx.bytes(), config_.vid, config_.pcp,
                     net::EtherType::qinq);
      ctx.invalidate_parse();
      stats_.add(0, ctx.packet().size());
      return ppe::Verdict::forward;

    case VlanMode::pop:
      if (!tagged) {
        if (config_.strict) {
          stats_.add(2, ctx.packet().size());
          return ppe::Verdict::drop;
        }
        stats_.add(1, ctx.packet().size());
        return ppe::Verdict::forward;
      }
      net::pop_vlan(ctx.bytes());
      ctx.invalidate_parse();
      stats_.add(0, ctx.packet().size());
      return ppe::Verdict::forward;

    case VlanMode::rewrite: {
      if (!tagged) {
        if (config_.strict) {
          stats_.add(2, ctx.packet().size());
          return ppe::Verdict::drop;
        }
        stats_.add(1, ctx.packet().size());
        return ppe::Verdict::forward;
      }
      const std::uint16_t old_vid = parsed.vlan_tags.front().vid;
      const auto mapped = translation_.lookup(old_vid);
      const std::uint16_t new_vid =
          mapped ? static_cast<std::uint16_t>(*mapped) : config_.vid;
      net::VlanTag tag = parsed.vlan_tags.front();
      tag.vid = new_vid & 0x0fff;
      tag.serialize_to(ctx.bytes(), net::EthernetHeader::size());
      ctx.invalidate_parse();
      stats_.add(0, ctx.packet().size());
      return ppe::Verdict::forward;
    }
  }
  return ppe::Verdict::forward;
}

bool VlanTagger::add_translation(std::uint16_t from_vid, std::uint16_t to_vid) {
  return translation_.insert(from_vid & 0x0fff, to_vid & 0x0fff);
}

hw::ResourceUsage VlanTagger::resource_usage(
    const hw::DatapathConfig& datapath) const {
  using RM = hw::ResourceModel;
  const std::uint32_t w = datapath.width_bits;
  hw::ResourceUsage usage;
  usage += RM::parser(18, w);  // Ethernet + up to one tag
  usage += RM::header_shift_unit(4, w);
  usage += RM::exact_match_table(4096, 12, 12);
  usage += RM::deparser(w);
  usage += RM::csr_block(8);
  usage += RM::stream_fifo(128, 72);
  usage += RM::stream_fifo(128, 72);
  usage += RM::control_fsm(8, w);
  return usage;
}

bool VlanTagger::table_insert(std::string_view table, std::uint64_t key,
                              std::uint64_t value) {
  return table == "vid_translation" &&
         translation_.insert(key & 0x0fff, value & 0x0fff);
}

bool VlanTagger::table_erase(std::string_view table, std::uint64_t key) {
  return table == "vid_translation" && translation_.erase(key & 0x0fff);
}

std::optional<std::uint64_t> VlanTagger::table_lookup(std::string_view table,
                                                      std::uint64_t key) const {
  if (table != "vid_translation") return std::nullopt;
  return translation_.lookup(key & 0x0fff);
}

std::vector<ppe::CounterSnapshot> VlanTagger::counters() const {
  return stats_.snapshot();
}

ppe::StageProfile VlanTagger::profile() const {
  using ppe::HeaderKind;
  ppe::StageProfile profile;
  profile.stage = name();
  profile.reads = ppe::header_set({HeaderKind::ethernet, HeaderKind::vlan});
  switch (config_.mode) {
    case VlanMode::push:
    case VlanMode::qinq_push:
      profile.produces = ppe::header_bit(HeaderKind::vlan);
      break;
    case VlanMode::pop:
      profile.consumes = ppe::header_bit(HeaderKind::vlan);
      break;
    case VlanMode::rewrite:
      profile.writes = ppe::header_bit(HeaderKind::vlan);
      profile.tables.push_back(ppe::TableProfile{
          .name = translation_.name(),
          .kind = ppe::TableKind::exact_match,
          .capacity = translation_.capacity(),
          .key_bits = translation_.key_bits(),
          .value_bits = translation_.value_bits(),
          .key_sources = ppe::header_bit(HeaderKind::vlan)});
      break;
  }
  // Tag push/pop shifts the whole frame by 4 bytes.
  profile.match_action_cycles = 2;
  profile.counter_banks.push_back({"vlan_stats", stats_.size(), 2});
  profile.pipeline_depth_cycles = pipeline_latency_cycles();
  return profile;
}

}  // namespace flexsfp::apps
