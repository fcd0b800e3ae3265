#include "apps/acl.hpp"

#include "hw/resource_model.hpp"

namespace flexsfp::apps {

net::Bytes AclConfig::serialize() const {
  net::Bytes out(5);
  out[0] = static_cast<std::uint8_t>(default_action);
  net::write_be32(out, 1, rule_capacity);
  return out;
}

std::optional<AclConfig> AclConfig::parse(net::BytesView data) {
  if (data.size() < 5 || data[0] > 2) return std::nullopt;
  AclConfig config;
  config.default_action = static_cast<AclAction>(data[0]);
  config.rule_capacity = net::read_be32(data, 1);
  if (config.rule_capacity == 0) return std::nullopt;
  return config;
}

AclFirewall::AclFirewall(AclConfig config)
    : config_(config),
      table_("acl", config.rule_capacity, 104),
      stats_("acl_stats", 4) {}

ppe::TernaryKey AclFirewall::pack_key(const net::FiveTuple& t) {
  ppe::TernaryKey key;
  key.hi = (std::uint64_t{t.src.value()} << 32) | t.dst.value();
  key.lo = (std::uint64_t{t.src_port} << 24) | (std::uint64_t{t.dst_port} << 8) |
           t.protocol;
  return key;
}

namespace {

ppe::Verdict action_verdict(AclAction action) {
  switch (action) {
    case AclAction::permit: return ppe::Verdict::forward;
    case AclAction::deny: return ppe::Verdict::drop;
    case AclAction::punt: return ppe::Verdict::to_control_plane;
  }
  return ppe::Verdict::drop;
}

std::size_t stat_index(AclAction action) {
  return static_cast<std::size_t>(action);  // 0/1/2
}

}  // namespace

ppe::Verdict AclFirewall::process(ppe::PacketContext& ctx) {
  const auto& parsed = ctx.parsed();
  const auto tuple = parsed.five_tuple();
  if (!tuple) {
    // Non-IPv4 traffic falls to the default action, like an implicit rule.
    stats_.add(3, ctx.packet().size());
    return action_verdict(config_.default_action);
  }
  const auto* rule = table_.match(pack_key(*tuple));
  if (rule == nullptr) {
    stats_.add(3, ctx.packet().size());
    return action_verdict(config_.default_action);
  }
  const auto action = static_cast<AclAction>(rule->result);
  stats_.add(stat_index(action), ctx.packet().size());
  return action_verdict(action);
}

std::size_t AclFirewall::add_rule(const AclRuleSpec& spec) {
  // Build base value/mask from the prefix and protocol constraints.
  ppe::TernaryKey value{};
  ppe::TernaryKey mask{};
  if (spec.src) {
    value.hi |= std::uint64_t{spec.src->address().value()} << 32;
    mask.hi |= std::uint64_t{spec.src->mask()} << 32;
  }
  if (spec.dst) {
    value.hi |= spec.dst->address().value();
    mask.hi |= spec.dst->mask();
  }
  if (spec.protocol) {
    value.lo |= *spec.protocol;
    mask.lo |= 0xff;
  }

  // Expand port ranges (cartesian product of src x dst expansions).
  using Expansion = std::vector<std::pair<std::uint16_t, std::uint16_t>>;
  const Expansion src_parts =
      spec.src_port_range
          ? ppe::expand_port_range(spec.src_port_range->first,
                                   spec.src_port_range->second)
          : Expansion{{0, 0}};
  const Expansion dst_parts =
      spec.dst_port_range
          ? ppe::expand_port_range(spec.dst_port_range->first,
                                   spec.dst_port_range->second)
          : Expansion{{0, 0}};
  if (src_parts.empty() || dst_parts.empty()) return 0;

  const std::size_t expansion_count = src_parts.size() * dst_parts.size();
  if (table_.size() + expansion_count > table_.capacity()) return 0;

  std::size_t installed = 0;
  for (const auto& [sv, sm] : src_parts) {
    for (const auto& [dv, dm] : dst_parts) {
      ppe::TernaryRule rule;
      rule.value = value;
      rule.mask = mask;
      rule.value.lo |= (std::uint64_t{sv} << 24) | (std::uint64_t{dv} << 8);
      rule.mask.lo |= (std::uint64_t{sm} << 24) | (std::uint64_t{dm} << 8);
      rule.priority = spec.priority;
      rule.result = static_cast<std::uint64_t>(spec.action);
      if (table_.add_rule(rule)) ++installed;
    }
  }
  return installed;
}

void AclFirewall::clear_rules() { table_.clear(); }

hw::ResourceUsage AclFirewall::resource_usage(
    const hw::DatapathConfig& datapath) const {
  using RM = hw::ResourceModel;
  const std::uint32_t w = datapath.width_bits;
  hw::ResourceUsage usage;
  usage += RM::parser(38, w);
  usage += RM::ternary_table(config_.rule_capacity, 104);
  usage += RM::deparser(w);
  usage += RM::csr_block(16);
  usage += RM::stream_fifo(128, 72);
  usage += RM::stream_fifo(128, 72);
  usage += RM::control_fsm(10, w);
  usage += hw::ResourceModel::counter_bank(8, 64);
  return usage;
}

std::vector<ppe::CounterSnapshot> AclFirewall::counters() const {
  return stats_.snapshot();
}

ppe::StageProfile AclFirewall::profile() const {
  using ppe::HeaderKind;
  ppe::StageProfile profile;
  profile.stage = name();
  profile.reads = ppe::header_set(
      {HeaderKind::ethernet, HeaderKind::ipv4, HeaderKind::tcp,
       HeaderKind::udp});
  profile.tables.push_back(ppe::TableProfile{
      .name = table_.name(),
      .kind = ppe::TableKind::ternary,
      .capacity = table_.capacity(),
      .key_bits = 104,  // the packed 5-tuple layout (see pack_key)
      .value_bits = 64,
      .key_sources = ppe::header_set(
          {HeaderKind::ipv4, HeaderKind::tcp, HeaderKind::udp}),
      .shadowed_entries = table_.shadowed_rule_count(),
      .duplicate_entries = table_.duplicate_rule_count()});
  profile.counter_banks.push_back({"acl_stats", stats_.size(), 3});
  profile.pipeline_depth_cycles = pipeline_latency_cycles();
  return profile;
}

}  // namespace flexsfp::apps
