#include "apps/nat.hpp"

#include <cstddef>

#include "net/builder.hpp"
#include "net/checksum.hpp"
#include "ppe/registry.hpp"

namespace flexsfp::apps {

namespace {

// Wire layouts of the headers the byte-peek fast path reads. Every field is
// a byte array, so the structs have no padding and offsetof gives the RFC
// byte offsets; only the offsets are used, never the structs.
struct EthernetWire {  // IEEE 802.3, untagged
  std::uint8_t dst[6], src[6], ether_type[2];
};
struct Ipv4Wire {  // RFC 791, without options
  std::uint8_t version_ihl, tos, total_length[2], identification[2],
      flags_fragment[2], ttl, protocol, checksum[2], src[4], dst[4];
};
struct TcpWire {  // RFC 9293, without options
  std::uint8_t src_port[2], dst_port[2], seq[4], ack[4], data_offset,
      flags, window[2], checksum[2], urgent[2];
};
struct UdpWire {  // RFC 768
  std::uint8_t src_port[2], dst_port[2], length[2], checksum[2];
};
static_assert(sizeof(EthernetWire) == net::EthernetHeader::size());
static_assert(sizeof(Ipv4Wire) == net::Ipv4Header::min_size());
static_assert(sizeof(TcpWire) == net::TcpHeader::min_size());
static_assert(sizeof(UdpWire) == net::UdpHeader::size());

// Absolute frame offsets of the fast-path shape: L3 right after an untagged
// Ethernet header, L4 right after a 20-byte IPv4 header.
constexpr std::size_t kL3 = net::EthernetHeader::size();
constexpr std::size_t kL4 = kL3 + net::Ipv4Header::min_size();
constexpr std::size_t kEtherType = offsetof(EthernetWire, ether_type);
constexpr std::size_t kIpv4VersionIhl = kL3 + offsetof(Ipv4Wire, version_ihl);
constexpr std::size_t kIpv4FlagsFragment =
    kL3 + offsetof(Ipv4Wire, flags_fragment);
constexpr std::size_t kIpv4Protocol = kL3 + offsetof(Ipv4Wire, protocol);
constexpr std::size_t kIpv4Checksum = kL3 + offsetof(Ipv4Wire, checksum);
constexpr std::size_t kIpv4Src = kL3 + offsetof(Ipv4Wire, src);
constexpr std::size_t kIpv4Dst = kL3 + offsetof(Ipv4Wire, dst);
constexpr std::size_t kTcpDataOffset = kL4 + offsetof(TcpWire, data_offset);
constexpr std::size_t kTcpChecksum = kL4 + offsetof(TcpWire, checksum);
constexpr std::size_t kUdpDstPort = kL4 + offsetof(UdpWire, dst_port);
constexpr std::size_t kUdpChecksum = kL4 + offsetof(UdpWire, checksum);
static_assert(kL3 == 14 && kL4 == 34);
static_assert(kEtherType == 12);
static_assert(kIpv4VersionIhl == 14);
static_assert(kIpv4FlagsFragment == 20);
static_assert(kIpv4Protocol == 23);
static_assert(kIpv4Checksum == 24);
static_assert(kIpv4Src == 26 && kIpv4Dst == 30);
static_assert(kTcpDataOffset == 46 && kTcpChecksum == 50);
static_assert(kUdpDstPort == 36 && kUdpChecksum == 40);

// Byte-peek classification. kSlowPath means "use the full parser"; the
// fast shapes are frames where parse_packet is GUARANTEED to succeed with
// the fixed offsets above: untagged Ethernet + IPv4 (version 4, ihl 5, not
// a fragment) carrying either TCP with a 20-byte header or UDP not on the
// VXLAN port, with every header fully present. Anything else — VLAN tags,
// IPv6, options, fragments, GRE/ICMP/other protocols, VXLAN's UDP port,
// truncations — falls back to the parser, so the fast path can never
// classify a frame differently than the parser would.
enum class Shape : std::uint8_t { slow_path, tcp, udp };

Shape fast_path_shape(const net::Bytes& b) {
  if (b.size() < kL4) return Shape::slow_path;
  if (net::read_be16(b, kEtherType) !=
      static_cast<std::uint16_t>(net::EtherType::ipv4)) {
    return Shape::slow_path;
  }
  if (b[kIpv4VersionIhl] != 0x45) return Shape::slow_path;  // v4, no options
  // Any of MF or the fragment offset set: a fragment. DF may be set.
  if ((net::read_be16(b, kIpv4FlagsFragment) & 0x3fff) != 0) {
    return Shape::slow_path;
  }
  const std::uint8_t proto = b[kIpv4Protocol];
  if (proto == static_cast<std::uint8_t>(net::IpProto::tcp)) {
    if (b.size() < kL4 + sizeof(TcpWire)) return Shape::slow_path;
    if ((b[kTcpDataOffset] >> 4) != 5) return Shape::slow_path;  // options
    return Shape::tcp;
  }
  if (proto == static_cast<std::uint8_t>(net::IpProto::udp)) {
    if (b.size() < kL4 + sizeof(UdpWire)) return Shape::slow_path;
    if (net::read_be16(b, kUdpDstPort) == net::VxlanHeader::udp_port) {
      return Shape::slow_path;  // parse_packet would attempt VXLAN decap
    }
    return Shape::udp;
  }
  return Shape::slow_path;
}

// The exact edits rewrite_ipv4_src/dst make on a fast-path frame: the
// address write plus RFC 1624 incremental patches of the IPv4 checksum and
// the L4 pseudo-header checksum (a zero UDP checksum means "none" and stays).
void rewrite_fast_path(net::Bytes& b, Shape shape, std::size_t addr_offset,
                       std::uint32_t old_value, std::uint32_t new_value) {
  if (old_value == new_value) return;
  net::write_be32(b, addr_offset, new_value);
  net::write_be16(b, kIpv4Checksum,
                  net::checksum_incremental_update32(
                      net::read_be16(b, kIpv4Checksum), old_value, new_value));
  if (shape == Shape::tcp) {
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
  // offset and parse_packet is guaranteed to agree.
  const Shape shape = fast_path_shape(ctx.packet().data());
  std::uint32_t match = 0;
  if (shape != Shape::slow_path) {
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
  if (shape != Shape::slow_path) {
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
  return {
      {"nat_stats", 0, stats_.packets(0), stats_.bytes(0)},
      {"nat_stats", 1, stats_.packets(1), stats_.bytes(1)},
      {"nat_stats", 2, stats_.packets(2), stats_.bytes(2)},
  };
}

namespace {
const bool registered = ppe::register_ppe_app(
    "nat", [](net::BytesView config) -> ppe::PpeAppPtr {
      if (config.empty()) return std::make_unique<StaticNat>();
      const auto parsed = NatConfig::parse(config);
      if (!parsed) return nullptr;
      return std::make_unique<StaticNat>(*parsed);
    });
}  // namespace

/// Force-link hook used by register_builtin_apps().
void link_nat_app() { (void)registered; }

}  // namespace flexsfp::apps
