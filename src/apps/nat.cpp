#include "apps/nat.hpp"

#include <cstddef>

#include "net/builder.hpp"
#include "net/checksum.hpp"
#include "net/wire_layout.hpp"

namespace flexsfp::apps {

namespace {

using net::wire::L4Shape;

// Absolute frame offsets of the fast-path shape: L3 right after an untagged
// Ethernet header, L4 right after a 20-byte IPv4 header.
constexpr std::size_t kL4 = net::wire::kL3 + sizeof(net::wire::Ipv4Wire);
constexpr std::size_t kIpv4Checksum =
    net::wire::kL3 + net::wire::kIpv4Checksum;
constexpr std::size_t kIpv4Src = net::wire::kL3 + net::wire::kIpv4Src;
constexpr std::size_t kIpv4Dst = net::wire::kL3 + net::wire::kIpv4Dst;
constexpr std::size_t kTcpChecksum = kL4 + net::wire::kTcpChecksum;
constexpr std::size_t kUdpChecksum = kL4 + net::wire::kUdpChecksum;
static_assert(kL4 == 34 && kIpv4Checksum == 24);
static_assert(kIpv4Src == 26 && kIpv4Dst == 30);
static_assert(kTcpChecksum == 50 && kUdpChecksum == 40);

// The exact edits rewrite_ipv4_src/dst make on a fast-path frame: the
// address write plus RFC 1624 incremental patches of the IPv4 checksum and
// the L4 pseudo-header checksum (a zero UDP checksum means "none" and stays).
void rewrite_fast_path(net::Bytes& b, L4Shape shape, std::size_t addr_offset,
                       std::uint32_t old_value, std::uint32_t new_value) {
  if (old_value == new_value) return;
  net::write_be32(b, addr_offset, new_value);
  net::write_be16(b, kIpv4Checksum,
                  net::checksum_incremental_update32(
                      net::read_be16(b, kIpv4Checksum), old_value, new_value));
  if (shape == L4Shape::tcp) {
    net::write_be16(b, kTcpChecksum,
                    net::checksum_incremental_update32(
                        net::read_be16(b, kTcpChecksum), old_value, new_value));
  } else if (net::read_be16(b, kUdpChecksum) != 0) {
    std::uint16_t patched = net::checksum_incremental_update32(
        net::read_be16(b, kUdpChecksum), old_value, new_value);
    if (patched == 0) patched = 0xffff;
    net::write_be16(b, kUdpChecksum, patched);
  }
}

}  // namespace

net::Bytes NatConfig::serialize() const {
  net::Bytes out(6);
  out[0] = static_cast<std::uint8_t>(direction);
  out[1] = static_cast<std::uint8_t>(miss_action);
  net::write_be32(out, 2, table_capacity);
  return out;
}

std::optional<NatConfig> NatConfig::parse(net::BytesView data) {
  if (data.size() < 6) return std::nullopt;
  if (data[0] > 1 || data[1] > 2) return std::nullopt;
  NatConfig config;
  config.direction = static_cast<NatDirection>(data[0]);
  config.miss_action = static_cast<NatMissAction>(data[1]);
  config.table_capacity = net::read_be32(data, 2);
  if (config.table_capacity == 0) return std::nullopt;
  return config;
}

StaticNat::StaticNat(NatConfig config)
    : config_(config),
      // Entry layout: 32 b key (IPv4 address), 64 b value (translated
      // address + metadata), +4 valid/version = 100 bits/entry -> the
      // paper's 160 LSRAM blocks at 32,768 entries.
      table_("nat", config.table_capacity, 32, 64),
      stats_("nat_stats", 3) {}

ppe::Verdict StaticNat::process(ppe::PacketContext& ctx) {
  const bool source = config_.direction == NatDirection::source;
  const std::size_t addr_offset = source ? kIpv4Src : kIpv4Dst;
  const std::size_t size = ctx.packet().size();
  // Plain frames skip the full parse: their match address sits at a fixed
  // offset and parse_packet is guaranteed to agree (net/wire_layout.hpp).
  const L4Shape shape = net::wire::ipv4_frame_shape(ctx.packet().data());
  std::uint32_t match = 0;
  if (shape != L4Shape::slow_path) {
    match = net::read_be32(ctx.packet().data(), addr_offset);
  } else {
    const auto& parsed = ctx.parsed();
    if (!parsed.ok() || !parsed.outer.ipv4) {
      stats_.add(2, size);
      return ppe::Verdict::forward;  // NAT is IPv4-only; pass others through
    }
    match = (source ? parsed.outer.ipv4->src : parsed.outer.ipv4->dst).value();
  }

  const auto hit = table_.lookup(match);
  if (!hit) {
    stats_.add(1, size);
    switch (config_.miss_action) {
      case NatMissAction::forward: return ppe::Verdict::forward;
      case NatMissAction::drop: return ppe::Verdict::drop;
      case NatMissAction::punt: return ppe::Verdict::to_control_plane;
    }
    return ppe::Verdict::forward;
  }

  const auto translated = static_cast<std::uint32_t>(*hit);
  if (shape != L4Shape::slow_path) {
    rewrite_fast_path(ctx.bytes(), shape, addr_offset, match, translated);
  } else {
    const auto& parsed = ctx.parsed();
    const net::Ipv4Address address{translated};
    const bool rewritten =
        source ? net::rewrite_ipv4_src(ctx.bytes(), parsed, address)
               : net::rewrite_ipv4_dst(ctx.bytes(), parsed, address);
    if (!rewritten) return ppe::Verdict::forward;
  }
  // An identity mapping counts as translated too, as rewrite_ipv4_* reports.
  ctx.invalidate_parse();
  stats_.add(0, size);
  return ppe::Verdict::forward;
}

hw::ResourceBreakdown StaticNat::resource_breakdown(
    const hw::DatapathConfig& datapath) const {
  using RM = hw::ResourceModel;
  const std::uint32_t w = datapath.width_bits;
  hw::ResourceBreakdown breakdown;
  // Eth (14) + IPv4 (20) + L4 ports (4) examined by the parser.
  breakdown.add("parser", RM::parser(38, w));
  breakdown.add("nat_table", RM::exact_match_table(config_.table_capacity,
                                                   32, 64));
  breakdown.add("addr_edit", RM::field_edit_unit(1, w));
  breakdown.add("checksum_patch", RM::checksum_patch_unit());
  breakdown.add("deparser", RM::deparser(w));
  breakdown.add("csr", RM::csr_block(24));
  breakdown.add("ingress_fifo", RM::stream_fifo(128, 72));
  breakdown.add("egress_fifo", RM::stream_fifo(128, 72));
  breakdown.add("lookup_fifo", RM::stream_fifo(128, 72));
  breakdown.add("pipeline_fsm", RM::control_fsm(18, w));
  return breakdown;
}

hw::ResourceUsage StaticNat::resource_usage(
    const hw::DatapathConfig& datapath) const {
  return resource_breakdown(datapath).total();
}

ppe::StageProfile StaticNat::profile() const {
  using ppe::HeaderKind;
  ppe::StageProfile profile;
  profile.stage = name();
  profile.reads = ppe::header_set(
      {HeaderKind::ethernet, HeaderKind::ipv4, HeaderKind::tcp,
       HeaderKind::udp});
  // Address rewrite plus incremental IPv4/L4 checksum patches.
  profile.writes = ppe::header_set(
      {HeaderKind::ipv4, HeaderKind::tcp, HeaderKind::udp});
  profile.tables.push_back(ppe::TableProfile{
      .name = table_.name(),
      .kind = ppe::TableKind::exact_match,
      .capacity = table_.capacity(),
      .key_bits = table_.key_bits(),
      .value_bits = table_.value_bits(),
      .key_sources = ppe::header_bit(HeaderKind::ipv4)});
  profile.counter_banks.push_back({"nat_stats", stats_.size(), 2});
  profile.pipeline_depth_cycles = pipeline_latency_cycles();
  return profile;
}

bool StaticNat::add_mapping(net::Ipv4Address original,
                            net::Ipv4Address translated) {
  return table_.insert(original.value(), translated.value());
}

bool StaticNat::remove_mapping(net::Ipv4Address original) {
  return table_.erase(original.value());
}

std::optional<net::Ipv4Address> StaticNat::translation_for(
    net::Ipv4Address original) const {
  const auto hit = table_.lookup(original.value());
  if (!hit) return std::nullopt;
  return net::Ipv4Address{static_cast<std::uint32_t>(*hit)};
}

bool StaticNat::table_insert(std::string_view table, std::uint64_t key,
                             std::uint64_t value) {
  return table == "nat" && table_.insert(key, value);
}

bool StaticNat::table_erase(std::string_view table, std::uint64_t key) {
  return table == "nat" && table_.erase(key);
}

std::optional<std::uint64_t> StaticNat::table_lookup(std::string_view table,
                                                     std::uint64_t key) const {
  if (table != "nat") return std::nullopt;
  return table_.lookup(key);
}

std::vector<ppe::CounterSnapshot> StaticNat::counters() const {
  return stats_.snapshot();
}

}  // namespace flexsfp::apps
