#include "apps/ipv6_filter.hpp"

#include <algorithm>

#include "hw/resource_model.hpp"

namespace flexsfp::apps {

net::Bytes Ipv6FilterConfig::serialize() const {
  net::Bytes out(6);
  out[0] = static_cast<std::uint8_t>(field);
  out[1] = static_cast<std::uint8_t>(default_action);
  net::write_be32(out, 2, rule_capacity);
  return out;
}

std::optional<Ipv6FilterConfig> Ipv6FilterConfig::parse(net::BytesView data) {
  if (data.size() < 6 || data[0] > 1 || data[1] > 1) return std::nullopt;
  Ipv6FilterConfig config;
  config.field = static_cast<Ipv6MatchField>(data[0]);
  config.default_action = static_cast<Ipv6Action>(data[1]);
  config.rule_capacity = net::read_be32(data, 2);
  if (config.rule_capacity == 0) return std::nullopt;
  return config;
}

Ipv6Filter::Ipv6Filter(Ipv6FilterConfig config)
    : config_(config), stats_("ipv6_stats", 3) {}

ppe::Verdict Ipv6Filter::process(ppe::PacketContext& ctx) {
  const auto& parsed = ctx.parsed();
  if (!parsed.outer.ipv6) {
    stats_.add(2, ctx.packet().size());
    return ppe::Verdict::forward;  // IPv4/other traffic is out of scope
  }
  const net::Ipv6Address& addr = config_.field == Ipv6MatchField::source
                                     ? parsed.outer.ipv6->src
                                     : parsed.outer.ipv6->dst;
  Ipv6Action action = config_.default_action;
  for (const auto& rule : rules_) {  // descending length: first hit = LPM
    if (rule.prefix.contains(addr)) {
      action = rule.action;
      break;
    }
  }
  if (action == Ipv6Action::permit) {
    stats_.add(0, ctx.packet().size());
    return ppe::Verdict::forward;
  }
  stats_.add(1, ctx.packet().size());
  return ppe::Verdict::drop;
}

bool Ipv6Filter::add_rule(net::Ipv6Prefix prefix, Ipv6Action action) {
  if (rules_.size() >= config_.rule_capacity) return false;
  const auto pos = std::find_if(rules_.begin(), rules_.end(),
                                [&prefix](const Ipv6Rule& rule) {
                                  return rule.prefix.length() < prefix.length();
                                });
  rules_.insert(pos, Ipv6Rule{prefix, action});
  return true;
}

bool Ipv6Filter::remove_rule(const net::Ipv6Prefix& prefix) {
  const auto it = std::find_if(
      rules_.begin(), rules_.end(),
      [&prefix](const Ipv6Rule& rule) { return rule.prefix == prefix; });
  if (it == rules_.end()) return false;
  rules_.erase(it);
  return true;
}

void Ipv6Filter::clear_rules() { rules_.clear(); }

hw::ResourceUsage Ipv6Filter::resource_usage(
    const hw::DatapathConfig& datapath) const {
  using RM = hw::ResourceModel;
  const std::uint32_t w = datapath.width_bits;
  hw::ResourceUsage usage;
  usage += RM::parser(54, w);  // Ethernet + full IPv6 header
  // 128-bit masked compare per rule: TCAM-style over the wide key.
  usage += RM::ternary_table(config_.rule_capacity, 128);
  usage += RM::deparser(w);
  usage += RM::csr_block(12);
  usage += RM::stream_fifo(128, 72);
  usage += RM::stream_fifo(128, 72);
  usage += RM::control_fsm(8, w);
  return usage;
}

std::vector<ppe::CounterSnapshot> Ipv6Filter::counters() const {
  return stats_.snapshot();
}

ppe::StageProfile Ipv6Filter::profile() const {
  using ppe::HeaderKind;
  ppe::StageProfile profile;
  profile.stage = name();
  profile.reads = ppe::header_set({HeaderKind::ethernet, HeaderKind::ipv6});
  profile.tables.push_back(ppe::TableProfile{
      .name = "ipv6_rules",
      .kind = ppe::TableKind::ternary,
      .capacity = config_.rule_capacity,
      .key_bits = 128,
      .value_bits = 8,
      .key_sources = ppe::header_bit(HeaderKind::ipv6)});
  profile.counter_banks.push_back({"ipv6_stats", stats_.size(), 2});
  profile.pipeline_depth_cycles = pipeline_latency_cycles();
  return profile;
}

}  // namespace flexsfp::apps
