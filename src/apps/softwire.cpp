#include "apps/softwire.hpp"

#include <algorithm>
#include <array>

#include "net/builder.hpp"
#include "net/checksum.hpp"
#include "net/wire_layout.hpp"

namespace flexsfp::apps {

namespace {

namespace wire = net::wire;

std::uint64_t pack_psid_params(PsidParams params) {
  return (std::uint64_t{params.psid_offset} << 8) | params.psid_len;
}

PsidParams unpack_psid_params(std::uint64_t value) {
  return PsidParams{static_cast<std::uint8_t>(value & 0xff),
                    static_cast<std::uint8_t>((value >> 8) & 0xff)};
}

/// The A+P-relevant transport field of a parsed L4 layer: TCP/UDP port, or
/// the identifier of an ICMP echo (the "port" lw4o6 maps echoes by,
/// RFC 7596 §5.2). nullopt when the layer has no mappable field.
std::optional<std::uint16_t> transport_port(const net::IpLayer& layer,
                                            bool source) {
  if (layer.tcp) return source ? layer.tcp->src_port : layer.tcp->dst_port;
  if (layer.udp) return source ? layer.udp->src_port : layer.udp->dst_port;
  if (layer.icmp &&
      (layer.icmp->type == 0 || layer.icmp->type == 8)) {  // echo reply/request
    return static_cast<std::uint16_t>(layer.icmp->rest >> 16);
  }
  return std::nullopt;
}

bool is_fragment(const net::Ipv4Header& ip) {
  return ip.more_fragments || ip.fragment_offset != 0;
}

/// The parser stops at the IPv6 next-header, so the tunnel payload is
/// re-parsed here at l3 + 40.
std::optional<SoftwireInner> parse_inner_ipv4(const net::Bytes& frame,
                                              std::size_t offset) {
  const auto ip = net::Ipv4Header::parse(frame, offset);
  if (!ip) return std::nullopt;
  SoftwireInner inner{ip->src, ip->dst, is_fragment(*ip), std::nullopt,
                      std::nullopt};
  const std::size_t l4 = offset + ip->size();
  switch (static_cast<net::IpProto>(ip->protocol)) {
    case net::IpProto::tcp:
    case net::IpProto::udp:
      if (frame.size() >= l4 + 4) {
        inner.src_port = net::read_be16(frame, l4);
        inner.dst_port = net::read_be16(frame, l4 + 2);
      }
      break;
    case net::IpProto::icmp:
      if (frame.size() >= l4 + 8 && (frame[l4] == 0 || frame[l4] == 8)) {
        const std::uint16_t id = net::read_be16(frame, l4 + 4);
        inner.src_port = id;
        inner.dst_port = id;
      }
      break;
    default:
      break;
  }
  return inner;
}

/// Byte-peek test for the common upstream frame: untagged Ethernet, a
/// fully present IPv6 header (version 6, next-header 4) addressed to
/// `aftr`, and an inner IPv4 packet of a fast shape at wire::kTunnelL3. For
/// such a frame parse_packet succeeds with the IPv6 layer at wire::kL3, and
/// parse_inner_ipv4 finds a non-fragment with both ports at fixed offsets.
bool upstream_fast_shape(const net::Bytes& b, const net::Ipv6Address& aftr) {
  if (!wire::untagged_ether_type(b, net::EtherType::ipv6) ||
      b.size() < wire::kTunnelL3) {
    return false;
  }
  if ((b[wire::kL3 + wire::kIpv6VersionClassFlow] >> 4) != 6 ||
      b[wire::kL3 + wire::kIpv6NextHeader] !=
          static_cast<std::uint8_t>(net::IpProto::ipv4_encap) ||
      !std::equal(aftr.octets().begin(), aftr.octets().end(),
                  b.begin() + wire::kL3 + wire::kIpv6Dst)) {
    return false;
  }
  return wire::ipv4_shape(b, wire::kTunnelL3) != wire::L4Shape::slow_path;
}

}  // namespace

// --- LwAftrConfig ----------------------------------------------------------

net::Bytes LwAftrConfig::serialize() const {
  net::Bytes out(35);
  std::copy(aftr_addr.octets().begin(), aftr_addr.octets().end(), out.begin());
  net::write_be32(out, 16, icmp_src.value());
  net::write_be32(out, 20, binding_capacity);
  out[24] = static_cast<std::uint8_t>(miss_action);
  out[25] = hairpin ? 1 : 0;
  out[26] = tunnel_hop_limit;
  net::write_be64(out, 27, b4_prefix_hi);
  return out;
}

std::optional<LwAftrConfig> LwAftrConfig::parse(net::BytesView data) {
  if (data.size() < 35) return std::nullopt;
  if (data[24] > 2 || data[25] > 1) return std::nullopt;
  LwAftrConfig config;
  std::array<std::uint8_t, 16> octets;
  std::copy(data.begin(), data.begin() + 16, octets.begin());
  config.aftr_addr = net::Ipv6Address{octets};
  config.icmp_src = net::Ipv4Address{net::read_be32(data, 16)};
  config.binding_capacity = net::read_be32(data, 20);
  if (config.binding_capacity == 0) return std::nullopt;
  config.miss_action = static_cast<SoftwireMissAction>(data[24]);
  config.hairpin = data[25] != 0;
  config.tunnel_hop_limit = data[26];
  config.b4_prefix_hi = net::read_be64(data, 27);
  return config;
}

// --- LwAftr ----------------------------------------------------------------

LwAftr::LwAftr(LwAftrConfig config)
    : config_(config),
      // Shared-address arithmetic: 32 b IPv4 key -> 16 b (offset, psid_len).
      // Sized like the binding table — worst case every lease has its own
      // address.
      psid_map_("psid_map", config.binding_capacity, 32, 16),
      // One entry per (ipv4, psid) lease: 48 b key -> the subscriber's B4
      // /128. The simulated table stores a slot index; the declared 128-bit
      // value width is what the SRAM entry actually holds.
      binding_("binding", config.binding_capacity, 48, 128),
      stats_("lwaftr_stats", stat_count) {
  b4_slots_.reserve(config.binding_capacity);
}

std::optional<std::uint64_t> LwAftr::match_subscriber(
    net::Ipv4Address addr, std::uint16_t port) const {
  const auto pm = psid_map_.lookup(addr.value());
  if (!pm) return std::nullopt;
  const PsidParams params = unpack_psid_params(*pm);
  if (port_excluded(params, port)) return std::nullopt;
  return binding_.lookup(binding_key(addr, psid_of_port(params, port)));
}

ppe::Verdict LwAftr::miss_verdict(ppe::PacketContext& ctx) {
  stats_.add(stat_unmappable_v4, ctx.packet().size());
  switch (config_.miss_action) {
    case SoftwireMissAction::drop:
      return ppe::Verdict::drop;
    case SoftwireMissAction::punt:
      stats_.add(stat_punted, ctx.packet().size());
      return ppe::Verdict::to_control_plane;
    case SoftwireMissAction::icmp_reject:
      rewrite_as_icmp_unreachable(ctx);
      return ppe::Verdict::forward;
  }
  return ppe::Verdict::drop;
}

void LwAftr::rewrite_as_icmp_unreachable(ppe::PacketContext& ctx) {
  // RFC 7596 §5.2: answer an unmappable IPv4 packet with a destination-
  // unreachable (host unreachable) quoting the offending IP header + 8
  // bytes, sent from the AFTR's own IPv4 address back to the source.
  const auto& parsed = ctx.parsed();
  const std::size_t l3 = parsed.outer.l3_offset;
  const net::Ipv4Header orig = *parsed.outer.ipv4;
  net::Bytes& b = ctx.bytes();

  // Save the quoted bytes before the new headers overwrite them. The quote
  // is at most a maximal (60-byte) IPv4 header + 8 bytes — stack space, so
  // the reject path stays allocation-free.
  std::array<std::uint8_t, 68> quote{};
  const std::size_t quote_len =
      std::min<std::size_t>(orig.size() + 8, b.size() - l3);
  std::copy(b.begin() + static_cast<std::ptrdiff_t>(l3),
            b.begin() + static_cast<std::ptrdiff_t>(l3 + quote_len),
            quote.begin());

  // Turn the frame around at L2.
  std::swap_ranges(b.begin(), b.begin() + 6, b.begin() + 6);

  const std::size_t body = 20 + net::IcmpHeader::size() + quote_len;
  const std::size_t new_size = std::max<std::size_t>(l3 + body, 60);
  b.resize(new_size);
  std::fill(b.begin() + static_cast<std::ptrdiff_t>(l3 + body), b.end(), 0);

  net::Ipv4Header reply;
  reply.total_length = static_cast<std::uint16_t>(body);
  reply.ttl = 64;
  reply.protocol = static_cast<std::uint8_t>(net::IpProto::icmp);
  reply.src = config_.icmp_src;
  reply.dst = orig.src;
  reply.checksum = reply.compute_checksum();
  reply.serialize_to(b, l3);

  net::IcmpHeader icmp;
  icmp.type = 3;  // destination unreachable
  icmp.code = 1;  // host unreachable
  icmp.serialize_to(b, l3 + 20);
  std::copy(quote.begin(), quote.begin() + static_cast<std::ptrdiff_t>(quote_len),
            b.begin() + static_cast<std::ptrdiff_t>(l3 + 28));
  const std::uint16_t checksum = net::internet_checksum(
      net::BytesView{b.data() + l3 + 20, net::IcmpHeader::size() + quote_len});
  net::write_be16(b, l3 + 22, checksum);

  ctx.invalidate_parse();
  stats_.add(stat_icmp_rejected, ctx.packet().size());
}

ppe::Verdict LwAftr::process_ipv4(ppe::PacketContext& ctx) {
  const auto& parsed = ctx.parsed();
  const net::Ipv4Header ip = *parsed.outer.ipv4;
  if (is_fragment(ip)) {
    // Per-port mapping needs the transport header; lw4o6 AFTRs are expected
    // to reassemble or reject — this datapath rejects (DF-everywhere edge).
    stats_.add(stat_fragments_rejected, ctx.packet().size());
    return ppe::Verdict::drop;
  }
  if (parsed.outer.icmp && parsed.outer.icmp->type != 0 &&
      parsed.outer.icmp->type != 8) {
    // ICMP errors need the quoted packet's ports to map — control plane.
    stats_.add(stat_punted, ctx.packet().size());
    return ppe::Verdict::to_control_plane;
  }
  const auto port = transport_port(parsed.outer, /*source=*/false);
  if (!port) return miss_verdict(ctx);
  return encapsulate(ctx, parsed.outer.l3_offset, ip.dst, *port);
}

ppe::Verdict LwAftr::encapsulate(ppe::PacketContext& ctx, std::size_t l3,
                                 net::Ipv4Address dst, std::uint16_t port) {
  const auto slot = match_subscriber(dst, port);
  if (!slot) return miss_verdict(ctx);
  if (!net::encapsulate_ipv4_in_ipv6(
          ctx.bytes(), l3, config_.aftr_addr,
          b4_slots_[static_cast<std::size_t>(*slot)],
          config_.tunnel_hop_limit)) {
    stats_.add(stat_malformed, ctx.packet().size());
    return ppe::Verdict::drop;
  }
  ctx.invalidate_parse();
  stats_.add(stat_encapsulated, ctx.packet().size());
  return ppe::Verdict::forward;
}

ppe::Verdict LwAftr::process_ipv6(ppe::PacketContext& ctx) {
  const auto& parsed = ctx.parsed();
  const net::Ipv6Header& ip6 = *parsed.outer.ipv6;
  if (ip6.dst != config_.aftr_addr ||
      ip6.next_header != static_cast<std::uint8_t>(net::IpProto::ipv4_encap)) {
    stats_.add(stat_passthrough, ctx.packet().size());
    return ppe::Verdict::forward;
  }
  const std::size_t l3 = parsed.outer.l3_offset;
  const auto inner = parse_inner_ipv4(ctx.bytes(), l3 + net::Ipv6Header::size());
  if (!inner) {
    stats_.add(stat_malformed, ctx.packet().size());
    return ppe::Verdict::drop;
  }
  if (inner->fragment) {
    stats_.add(stat_fragments_rejected, ctx.packet().size());
    return ppe::Verdict::drop;
  }
  return decapsulate(ctx, l3, *inner);
}

ppe::Verdict LwAftr::decapsulate(ppe::PacketContext& ctx, std::size_t l3,
                                 const SoftwireInner& inner) {
  net::Bytes& b = ctx.bytes();
  // Anti-spoof (RFC 7596 §5.1): the inner source (address, port) must map
  // to a lease whose B4 is exactly the outer IPv6 source.
  const auto pm = psid_map_.lookup(inner.src.value());
  if (!pm || !inner.src_port) {
    stats_.add(stat_antispoof_dropped, b.size());
    return ppe::Verdict::drop;
  }
  const PsidParams params = unpack_psid_params(*pm);
  const std::uint16_t sport = *inner.src_port;
  if (port_excluded(params, sport)) {
    stats_.add(stat_antispoof_dropped, b.size());
    return ppe::Verdict::drop;
  }
  const auto slot =
      binding_.lookup(binding_key(inner.src, psid_of_port(params, sport)));
  const auto* lease =
      slot ? &b4_slots_[static_cast<std::size_t>(*slot)].octets() : nullptr;
  const auto outer_src =
      b.begin() + static_cast<std::ptrdiff_t>(l3 + wire::kIpv6Src);
  if (lease == nullptr ||
      !std::equal(lease->begin(), lease->end(), outer_src)) {
    stats_.add(stat_antispoof_dropped, b.size());
    return ppe::Verdict::drop;
  }
  if (config_.hairpin && inner.dst_port) {
    if (const auto peer = match_subscriber(inner.dst, *inner.dst_port)) {
      // Subscriber-to-subscriber: re-aim the existing tunnel header at the
      // peer's B4 instead of decapsulating — three in-place field writes.
      net::write_u8(b, l3 + wire::kIpv6HopLimit, config_.tunnel_hop_limit);
      const auto& peer_b4 = b4_slots_[static_cast<std::size_t>(*peer)];
      std::copy(config_.aftr_addr.octets().begin(),
                config_.aftr_addr.octets().end(), outer_src);
      std::copy(peer_b4.octets().begin(), peer_b4.octets().end(),
                b.begin() + static_cast<std::ptrdiff_t>(l3 + wire::kIpv6Dst));
      ctx.invalidate_parse();
      stats_.add(stat_hairpinned, b.size());
      return ppe::Verdict::forward;
    }
  }
  if (!net::decapsulate_ipv4_in_ipv6(b, l3)) {
    stats_.add(stat_malformed, b.size());
    return ppe::Verdict::drop;
  }
  ctx.invalidate_parse();
  stats_.add(stat_decapsulated, b.size());
  return ppe::Verdict::forward;
}

ppe::Verdict LwAftr::process(ppe::PacketContext& ctx) {
  // The common shapes skip the full parse: their addresses and ports sit at
  // fixed offsets and parse_packet is guaranteed to agree (wire_layout.hpp).
  const net::Bytes& b = ctx.packet().data();
  if (wire::ipv4_frame_shape(b) != wire::L4Shape::slow_path) {
    constexpr std::size_t l4 = wire::kL3 + sizeof(wire::Ipv4Wire);
    return encapsulate(
        ctx, wire::kL3,
        net::Ipv4Address{net::read_be32(b, wire::kL3 + wire::kIpv4Dst)},
        net::read_be16(b, l4 + wire::kL4DstPort));
  }
  if (upstream_fast_shape(b, config_.aftr_addr)) {
    constexpr std::size_t inner = wire::kTunnelL3;
    constexpr std::size_t l4 = inner + sizeof(wire::Ipv4Wire);
    return decapsulate(
        ctx, wire::kL3,
        SoftwireInner{
            net::Ipv4Address{net::read_be32(b, inner + wire::kIpv4Src)},
            net::Ipv4Address{net::read_be32(b, inner + wire::kIpv4Dst)},
            /*fragment=*/false, net::read_be16(b, l4 + wire::kL4SrcPort),
            net::read_be16(b, l4 + wire::kL4DstPort)});
  }
  const auto& parsed = ctx.parsed();
  if (!parsed.ok()) {
    stats_.add(stat_malformed, ctx.packet().size());
    return ppe::Verdict::drop;
  }
  if (parsed.outer.ipv6) return process_ipv6(ctx);
  if (parsed.outer.ipv4) return process_ipv4(ctx);
  stats_.add(stat_passthrough, ctx.packet().size());
  return ppe::Verdict::forward;
}

hw::ResourceBreakdown LwAftr::resource_breakdown(
    const hw::DatapathConfig& datapath) const {
  using RM = hw::ResourceModel;
  const std::uint32_t w = datapath.width_bits;
  hw::ResourceBreakdown breakdown;
  // Eth (14) + outer IPv6 (40) + inner/outer IPv4 (20) + L4 ports/id (4).
  breakdown.add("parser", RM::parser(78, w));
  breakdown.add("psid_map", RM::exact_match_table(config_.binding_capacity,
                                                  psid_map_.key_bits(),
                                                  psid_map_.value_bits()));
  breakdown.add("binding_table",
                RM::exact_match_table(config_.binding_capacity,
                                      binding_.key_bits(),
                                      binding_.value_bits()));
  // 40-byte shim insert/remove plus the hairpin address rewrites.
  breakdown.add("shim_edit", RM::field_edit_unit(3, w));
  breakdown.add("icmp_gen", RM::checksum_patch_unit());
  breakdown.add("deparser", RM::deparser(w));
  breakdown.add("csr", RM::csr_block(40));
  breakdown.add("ingress_fifo", RM::stream_fifo(128, 72));
  breakdown.add("egress_fifo", RM::stream_fifo(128, 72));
  breakdown.add("lookup_fifo", RM::stream_fifo(128, 72));
  breakdown.add("pipeline_fsm", RM::control_fsm(24, w));
  return breakdown;
}

hw::ResourceUsage LwAftr::resource_usage(
    const hw::DatapathConfig& datapath) const {
  return resource_breakdown(datapath).total();
}

ppe::StageProfile LwAftr::profile() const {
  using ppe::HeaderKind;
  ppe::StageProfile profile;
  profile.stage = name();
  profile.reads = ppe::header_set({HeaderKind::ethernet, HeaderKind::ipv4,
                                   HeaderKind::ipv6, HeaderKind::tcp,
                                   HeaderKind::udp, HeaderKind::icmp});
  // Hairpin rewrites the IPv6 tunnel header; the ICMP reject path rewrites
  // Ethernet + IPv4 and emits a fresh ICMP header.
  profile.writes = ppe::header_set({HeaderKind::ethernet, HeaderKind::ipv4,
                                    HeaderKind::ipv6, HeaderKind::icmp});
  profile.produces = ppe::header_set({HeaderKind::ipv6, HeaderKind::icmp});
  profile.consumes = ppe::header_set({HeaderKind::ipv6});
  profile.tables.push_back(ppe::TableProfile{
      .name = psid_map_.name(),
      .kind = ppe::TableKind::exact_match,
      .capacity = psid_map_.capacity(),
      .key_bits = psid_map_.key_bits(),
      .value_bits = psid_map_.value_bits(),
      .key_sources = ppe::header_bit(HeaderKind::ipv4)});
  profile.tables.push_back(ppe::TableProfile{
      .name = binding_.name(),
      .kind = ppe::TableKind::exact_match,
      .capacity = binding_.capacity(),
      .key_bits = binding_.key_bits(),
      .value_bits = binding_.value_bits(),
      .key_sources = ppe::header_set({HeaderKind::ipv4, HeaderKind::tcp,
                                      HeaderKind::udp, HeaderKind::icmp})});
  profile.counter_banks.push_back(
      {"lwaftr_stats", stats_.size(), stat_count - 1});
  // Two dependent SRAM probes (psid_map then binding) plus the 40-byte shim
  // shift, which realigns the whole stream behind it.
  profile.match_action_cycles = 3;
  profile.pipeline_depth_cycles = pipeline_latency_cycles();
  return profile;
}

bool LwAftr::add_binding(net::Ipv4Address ipv4, std::uint16_t psid,
                         PsidParams params, const net::Ipv6Address& b4) {
  if (!psid_params_valid(params)) return false;
  if (params.psid_len < 16 &&
      psid >= (std::uint32_t{1} << params.psid_len)) {
    return false;
  }
  const auto pm = psid_map_.lookup(ipv4.value());
  const std::uint64_t packed = pack_psid_params(params);
  // Every PSID of a shared address must use the same port arithmetic.
  if (pm && (*pm & 0xffff) != packed) return false;

  const std::uint64_t key = binding_key(ipv4, psid);
  if (const auto slot = binding_.lookup(key)) {
    b4_slots_[static_cast<std::size_t>(*slot)] = b4;  // refresh the lease
    return true;
  }
  const bool reuse = !free_slots_.empty();
  if (!reuse && b4_slots_.size() >= config_.binding_capacity) return false;
  const std::uint32_t slot =
      reuse ? free_slots_.back() : static_cast<std::uint32_t>(b4_slots_.size());

  const std::uint64_t refcount = pm ? (*pm >> 16) : 0;
  if (!psid_map_.insert(ipv4.value(), ((refcount + 1) << 16) | packed)) {
    return false;
  }
  if (!binding_.insert(key, slot)) {
    // Roll the refcount back so a bucket-overflow reject leaves no trace.
    if (pm) {
      psid_map_.insert(ipv4.value(), *pm);
    } else {
      psid_map_.erase(ipv4.value());
    }
    return false;
  }
  if (reuse) {
    free_slots_.pop_back();
    b4_slots_[slot] = b4;
  } else {
    b4_slots_.push_back(b4);
  }
  return true;
}

bool LwAftr::remove_binding(net::Ipv4Address ipv4, std::uint16_t psid) {
  const std::uint64_t key = binding_key(ipv4, psid);
  const auto slot = binding_.lookup(key);
  if (!slot) return false;
  binding_.erase(key);
  free_slots_.push_back(static_cast<std::uint32_t>(*slot));
  if (const auto pm = psid_map_.lookup(ipv4.value())) {
    const std::uint64_t refcount = *pm >> 16;
    if (refcount <= 1) {
      psid_map_.erase(ipv4.value());
    } else {
      psid_map_.insert(ipv4.value(),
                       ((refcount - 1) << 16) | (*pm & 0xffff));
    }
  }
  return true;
}

std::optional<net::Ipv6Address> LwAftr::b4_for(net::Ipv4Address ipv4,
                                               std::uint16_t psid) const {
  const auto slot = binding_.lookup(binding_key(ipv4, psid));
  if (!slot) return std::nullopt;
  return b4_slots_[static_cast<std::size_t>(*slot)];
}

std::optional<PsidParams> LwAftr::params_for(net::Ipv4Address ipv4) const {
  const auto pm = psid_map_.lookup(ipv4.value());
  if (!pm) return std::nullopt;
  return unpack_psid_params(*pm);
}

bool LwAftr::table_insert(std::string_view table, std::uint64_t key,
                          std::uint64_t value) {
  if (table == "psid_map") {
    return psid_map_.insert(key & 0xffffffffull, value);
  }
  if (table != "binding") return false;
  const net::Ipv4Address ipv4{static_cast<std::uint32_t>(key >> 16)};
  const auto pm = psid_map_.lookup(ipv4.value());
  if (!pm) return false;  // provision psid_map first
  return add_binding(ipv4, static_cast<std::uint16_t>(key & 0xffff),
                     unpack_psid_params(*pm),
                     net::Ipv6Address::from_u64_pair(config_.b4_prefix_hi,
                                                     value));
}

bool LwAftr::table_erase(std::string_view table, std::uint64_t key) {
  if (table == "psid_map") return psid_map_.erase(key & 0xffffffffull);
  if (table != "binding") return false;
  return remove_binding(net::Ipv4Address{static_cast<std::uint32_t>(key >> 16)},
                        static_cast<std::uint16_t>(key & 0xffff));
}

std::optional<std::uint64_t> LwAftr::table_lookup(std::string_view table,
                                                  std::uint64_t key) const {
  if (table == "psid_map") return psid_map_.lookup(key & 0xffffffffull);
  if (table != "binding") return std::nullopt;
  const auto slot = binding_.lookup(key);
  if (!slot) return std::nullopt;
  return b4_slots_[static_cast<std::size_t>(*slot)].to_u64_pair().second;
}

std::vector<ppe::CounterSnapshot> LwAftr::counters() const {
  return stats_.snapshot();
}

// --- LwB4Config ------------------------------------------------------------

net::Bytes LwB4Config::serialize() const {
  net::Bytes out(41);
  net::write_be32(out, 0, ipv4.value());
  net::write_be16(out, 4, psid);
  out[6] = params.psid_len;
  out[7] = params.psid_offset;
  std::copy(b4_addr.octets().begin(), b4_addr.octets().end(), out.begin() + 8);
  std::copy(aftr_addr.octets().begin(), aftr_addr.octets().end(),
            out.begin() + 24);
  out[40] = tunnel_hop_limit;
  return out;
}

std::optional<LwB4Config> LwB4Config::parse(net::BytesView data) {
  if (data.size() < 41) return std::nullopt;
  LwB4Config config;
  config.ipv4 = net::Ipv4Address{net::read_be32(data, 0)};
  config.psid = net::read_be16(data, 4);
  config.params = PsidParams{data[6], data[7]};
  if (!psid_params_valid(config.params)) return std::nullopt;
  if (config.params.psid_len < 16 &&
      config.psid >= (std::uint32_t{1} << config.params.psid_len)) {
    return std::nullopt;
  }
  std::array<std::uint8_t, 16> octets;
  std::copy(data.begin() + 8, data.begin() + 24, octets.begin());
  config.b4_addr = net::Ipv6Address{octets};
  std::copy(data.begin() + 24, data.begin() + 40, octets.begin());
  config.aftr_addr = net::Ipv6Address{octets};
  config.tunnel_hop_limit = data[40];
  return config;
}

// --- LwB4 ------------------------------------------------------------------

LwB4::LwB4(LwB4Config config)
    : config_(config), stats_("lwb4_stats", stat_count) {}

ppe::Verdict LwB4::process(ppe::PacketContext& ctx) {
  const auto& parsed = ctx.parsed();
  if (!parsed.ok()) {
    stats_.add(stat_malformed, ctx.packet().size());
    return ppe::Verdict::drop;
  }
  if (parsed.outer.ipv4) {
    const net::Ipv4Header ip = *parsed.outer.ipv4;
    if (ip.src != config_.ipv4) {
      stats_.add(stat_passthrough, ctx.packet().size());
      return ppe::Verdict::forward;
    }
    if (is_fragment(ip)) {
      stats_.add(stat_malformed, ctx.packet().size());
      return ppe::Verdict::drop;
    }
    const auto port = transport_port(parsed.outer, /*source=*/true);
    if (!port) {
      stats_.add(stat_malformed, ctx.packet().size());
      return ppe::Verdict::drop;
    }
    if (!port_in_set(config_.params, config_.psid, *port)) {
      // The NAPT44 in front of us leaked a port outside the lease — this is
      // the port-set-exhaustion signal the bench provokes.
      stats_.add(stat_port_out_of_set, ctx.packet().size());
      return ppe::Verdict::drop;
    }
    if (!net::encapsulate_ipv4_in_ipv6(ctx.bytes(), parsed.outer.l3_offset,
                                       config_.b4_addr, config_.aftr_addr,
                                       config_.tunnel_hop_limit)) {
      stats_.add(stat_malformed, ctx.packet().size());
      return ppe::Verdict::drop;
    }
    ctx.invalidate_parse();
    stats_.add(stat_encapsulated, ctx.packet().size());
    return ppe::Verdict::forward;
  }
  if (parsed.outer.ipv6) {
    const net::Ipv6Header ip6 = *parsed.outer.ipv6;
    if (ip6.dst != config_.b4_addr ||
        ip6.next_header !=
            static_cast<std::uint8_t>(net::IpProto::ipv4_encap)) {
      stats_.add(stat_passthrough, ctx.packet().size());
      return ppe::Verdict::forward;
    }
    const std::size_t l3 = parsed.outer.l3_offset;
    const auto inner =
        parse_inner_ipv4(ctx.bytes(), l3 + net::Ipv6Header::size());
    if (!inner) {
      stats_.add(stat_malformed, ctx.packet().size());
      return ppe::Verdict::drop;
    }
    // RFC 7596 §6: the B4 validates the downstream destination port against
    // its own restricted set before handing the packet to the NAPT44.
    if (!inner->fragment &&
        (!inner->dst_port ||
         !port_in_set(config_.params, config_.psid, *inner->dst_port))) {
      stats_.add(stat_port_out_of_set, ctx.packet().size());
      return ppe::Verdict::drop;
    }
    if (!net::decapsulate_ipv4_in_ipv6(ctx.bytes(), l3)) {
      stats_.add(stat_malformed, ctx.packet().size());
      return ppe::Verdict::drop;
    }
    ctx.invalidate_parse();
    stats_.add(stat_decapsulated, ctx.packet().size());
    return ppe::Verdict::forward;
  }
  stats_.add(stat_passthrough, ctx.packet().size());
  return ppe::Verdict::forward;
}

hw::ResourceUsage LwB4::resource_usage(
    const hw::DatapathConfig& datapath) const {
  using RM = hw::ResourceModel;
  const std::uint32_t w = datapath.width_bits;
  hw::ResourceBreakdown breakdown;
  // Eth (14) + IPv6 (40) + IPv4 (20) + L4 ports (4); the lease is pure
  // configuration — registers, no SRAM table.
  breakdown.add("parser", RM::parser(78, w));
  breakdown.add("shim_edit", RM::field_edit_unit(2, w));
  breakdown.add("deparser", RM::deparser(w));
  breakdown.add("csr", RM::csr_block(20));
  breakdown.add("ingress_fifo", RM::stream_fifo(128, 72));
  breakdown.add("egress_fifo", RM::stream_fifo(128, 72));
  breakdown.add("pipeline_fsm", RM::control_fsm(12, w));
  return breakdown.total();
}

ppe::StageProfile LwB4::profile() const {
  using ppe::HeaderKind;
  ppe::StageProfile profile;
  profile.stage = name();
  profile.reads = ppe::header_set({HeaderKind::ethernet, HeaderKind::ipv4,
                                   HeaderKind::ipv6, HeaderKind::tcp,
                                   HeaderKind::udp, HeaderKind::icmp});
  profile.writes = ppe::header_set({HeaderKind::ipv6});
  profile.produces = ppe::header_set({HeaderKind::ipv6});
  profile.consumes = ppe::header_set({HeaderKind::ipv6});
  profile.counter_banks.push_back({"lwb4_stats", stats_.size(), stat_count - 1});
  // Register compare + the 40-byte shim shift.
  profile.match_action_cycles = 2;
  profile.pipeline_depth_cycles = pipeline_latency_cycles();
  return profile;
}

std::vector<ppe::CounterSnapshot> LwB4::counters() const {
  return stats_.snapshot();
}

}  // namespace flexsfp::apps
