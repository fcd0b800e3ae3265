#include "apps/sanitizer.hpp"

#include "hw/resource_model.hpp"
#include "net/checksum.hpp"

namespace flexsfp::apps {

IssueMask strict_issue_mask() {
  using VI = net::ValidationIssue;
  return issue_bit(VI::ipv4_bad_checksum) |
         issue_bit(VI::ipv4_total_length_mismatch) |
         issue_bit(VI::ipv4_ttl_zero) | issue_bit(VI::ipv4_martian_source) |
         issue_bit(VI::ipv6_payload_length_mismatch) |
         issue_bit(VI::ipv6_hop_limit_zero) | issue_bit(VI::tcp_bad_flags) |
         issue_bit(VI::udp_length_mismatch) |
         issue_bit(VI::frame_undersized);
}

net::Bytes SanitizerConfig::serialize() const {
  net::Bytes out(7);
  net::write_be32(out, 0, drop_mask);
  out[4] = strip_ipv4_options ? 1 : 0;
  out[5] = drop_unparseable ? 1 : 0;
  out[6] = block_doh ? 1 : 0;
  return out;
}

std::optional<SanitizerConfig> SanitizerConfig::parse(net::BytesView data) {
  if (data.size() < 7) return std::nullopt;
  SanitizerConfig config;
  config.drop_mask = net::read_be32(data, 0);
  config.strip_ipv4_options = data[4] != 0;
  config.drop_unparseable = data[5] != 0;
  config.block_doh = data[6] != 0;
  return config;
}

Sanitizer::Sanitizer(SanitizerConfig config)
    : config_(config),
      doh_resolvers_("doh_resolvers", 256, 32, 8),
      stats_("sanitizer_stats", 4),
      issues_("issue_stats", 16) {}

bool Sanitizer::strip_options(net::Bytes& frame,
                              const net::ParsedPacket& parsed) {
  if (!parsed.outer.ipv4 || parsed.outer.ipv4->ihl <= 5) return false;
  const auto& ip = *parsed.outer.ipv4;
  const std::size_t l3 = parsed.outer.l3_offset;
  const std::size_t option_bytes = ip.size() - net::Ipv4Header::min_size();

  frame.erase(frame.begin() +
                  static_cast<std::ptrdiff_t>(l3 + net::Ipv4Header::min_size()),
              frame.begin() + static_cast<std::ptrdiff_t>(l3 + ip.size()));

  net::Ipv4Header fixed = ip;
  fixed.ihl = 5;
  fixed.total_length =
      static_cast<std::uint16_t>(ip.total_length - option_bytes);
  fixed.checksum = 0;
  fixed.serialize_to(frame, l3);
  net::write_be16(frame, l3 + 10, fixed.compute_checksum());
  return true;
}

ppe::Verdict Sanitizer::process(ppe::PacketContext& ctx) {
  const auto& parsed = ctx.parsed();
  if (!parsed.ok() && parsed.error != net::ParseError::bad_ip_version) {
    if (config_.drop_unparseable) {
      stats_.add(1, ctx.packet().size());
      return ppe::Verdict::drop;
    }
    stats_.add(0, ctx.packet().size());
    return ppe::Verdict::forward;
  }

  // DoH blocking: port 443 toward a known resolver.
  if (config_.block_doh) {
    const auto tuple = parsed.five_tuple();
    if (tuple && tuple->dst_port == 443 &&
        doh_resolvers_.lookup(tuple->dst.value()).has_value()) {
      stats_.add(3, ctx.packet().size());
      return ppe::Verdict::drop;
    }
  }

  const auto found = net::validate_packet(parsed, ctx.bytes());
  bool drop = false;
  bool has_options = false;
  for (const auto issue : found) {
    issues_.add(static_cast<std::size_t>(issue), ctx.packet().size());
    if ((config_.drop_mask & issue_bit(issue)) != 0) drop = true;
    if (issue == net::ValidationIssue::ipv4_options_present) {
      has_options = true;
    }
  }
  if (drop) {
    stats_.add(1, ctx.packet().size());
    return ppe::Verdict::drop;
  }
  if (has_options && config_.strip_ipv4_options) {
    if (strip_options(ctx.bytes(), parsed)) {
      ctx.invalidate_parse();
      stats_.add(2, ctx.packet().size());
      return ppe::Verdict::forward;
    }
  }
  stats_.add(0, ctx.packet().size());
  return ppe::Verdict::forward;
}

bool Sanitizer::add_doh_resolver(net::Ipv4Address resolver) {
  return doh_resolvers_.insert(resolver.value(), 1);
}

hw::ResourceUsage Sanitizer::resource_usage(
    const hw::DatapathConfig& datapath) const {
  using RM = hw::ResourceModel;
  const std::uint32_t w = datapath.width_bits;
  hw::ResourceUsage usage;
  usage += RM::parser(54, w);  // validation reads deeper than forwarding
  usage += RM::checksum_patch_unit();          // checksum verify
  usage += RM::checksum_patch_unit();          // checksum regenerate (strip)
  usage += RM::header_shift_unit(40, w);       // option removal shifter
  usage += RM::exact_match_table(256, 32, 8);  // DoH resolver set
  usage += RM::deparser(w);
  usage += RM::csr_block(16);
  usage += RM::stream_fifo(128, 72);
  usage += RM::stream_fifo(128, 72);
  usage += RM::control_fsm(14, w);
  usage += RM::counter_bank(40, 64);
  return usage;
}

bool Sanitizer::table_insert(std::string_view table, std::uint64_t key,
                             std::uint64_t value) {
  return table == "doh_resolvers" && doh_resolvers_.insert(key, value);
}

bool Sanitizer::table_erase(std::string_view table, std::uint64_t key) {
  return table == "doh_resolvers" && doh_resolvers_.erase(key);
}

std::optional<std::uint64_t> Sanitizer::table_lookup(std::string_view table,
                                                     std::uint64_t key) const {
  if (table != "doh_resolvers") return std::nullopt;
  return doh_resolvers_.lookup(key);
}

std::vector<ppe::CounterSnapshot> Sanitizer::counters() const {
  return stats_.snapshot();
}

ppe::StageProfile Sanitizer::profile() const {
  using ppe::HeaderKind;
  ppe::StageProfile profile;
  profile.stage = name();
  // Structural validation inspects every wire layer.
  profile.reads = ppe::wire_header_set();
  if (config_.strip_ipv4_options) {
    profile.writes = ppe::header_bit(HeaderKind::ipv4);
    // Option stripping realigns everything behind the IPv4 header.
    profile.match_action_cycles = 2;
  }
  if (config_.block_doh) {
    profile.tables.push_back(ppe::TableProfile{
        .name = doh_resolvers_.name(),
        .kind = ppe::TableKind::exact_match,
        .capacity = doh_resolvers_.capacity(),
        .key_bits = doh_resolvers_.key_bits(),
        .value_bits = doh_resolvers_.value_bits(),
        .key_sources = ppe::header_bit(HeaderKind::ipv4)});
  }
  profile.counter_banks.push_back({"sanitizer_stats", stats_.size(), 3});
  profile.counter_banks.push_back(
      {"issue_stats", issues_.size(),
       static_cast<std::size_t>(net::ValidationIssue::frame_undersized)});
  profile.pipeline_depth_cycles = pipeline_latency_cycles();
  return profile;
}

}  // namespace flexsfp::apps
