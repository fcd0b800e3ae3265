#include "net/builder.hpp"

#include <array>
#include <cstring>
#include <stdexcept>

#include "net/checksum.hpp"

namespace flexsfp::net {

PacketBuilder& PacketBuilder::ethernet(MacAddress dst, MacAddress src,
                                       EtherType type) {
  EthernetHeader h;
  h.dst = dst;
  h.src = src;
  h.ether_type = static_cast<std::uint16_t>(type);
  eth_ = h;
  return *this;
}

PacketBuilder& PacketBuilder::vlan(std::uint16_t vid, std::uint8_t pcp) {
  VlanTag tag;
  tag.vid = vid;
  tag.pcp = pcp;
  vlans_.push_back(tag);
  return *this;
}

PacketBuilder& PacketBuilder::qinq(std::uint16_t service_vid,
                                   std::uint16_t customer_vid) {
  qinq_outer_ = true;
  vlan(service_vid);
  vlan(customer_vid);
  return *this;
}

PacketBuilder& PacketBuilder::ipv4(Ipv4Address src, Ipv4Address dst,
                                   IpProto proto, std::uint8_t ttl) {
  Ipv4Header h;
  h.src = src;
  h.dst = dst;
  h.protocol = static_cast<std::uint8_t>(proto);
  h.ttl = ttl;
  ipv4_ = h;
  return *this;
}

PacketBuilder& PacketBuilder::ipv4_header(const Ipv4Header& header) {
  ipv4_ = header;
  return *this;
}

PacketBuilder& PacketBuilder::ipv6(Ipv6Address src, Ipv6Address dst,
                                   IpProto next, std::uint8_t hop_limit) {
  Ipv6Header h;
  h.src = src;
  h.dst = dst;
  h.next_header = static_cast<std::uint8_t>(next);
  h.hop_limit = hop_limit;
  ipv6_ = h;
  return *this;
}

PacketBuilder& PacketBuilder::udp(std::uint16_t src_port,
                                  std::uint16_t dst_port) {
  UdpHeader h;
  h.src_port = src_port;
  h.dst_port = dst_port;
  udp_ = h;
  return *this;
}

PacketBuilder& PacketBuilder::tcp(std::uint16_t src_port,
                                  std::uint16_t dst_port, std::uint8_t flags) {
  TcpHeader h;
  h.src_port = src_port;
  h.dst_port = dst_port;
  h.flags = flags;
  h.window = 0xffff;
  tcp_ = h;
  return *this;
}

PacketBuilder& PacketBuilder::icmp_echo(std::uint16_t id, std::uint16_t seq) {
  IcmpHeader h;
  h.type = 8;  // echo request
  h.rest = (std::uint32_t{id} << 16) | seq;
  icmp_ = h;
  return *this;
}

PacketBuilder& PacketBuilder::payload(Bytes bytes) {
  payload_ = std::move(bytes);
  return *this;
}

PacketBuilder& PacketBuilder::payload_size(std::size_t size) {
  // The pattern has period 256 and every chunk below starts at a multiple
  // of 256, so block-copying a prebuilt table reproduces (i & 0xff) exactly.
  static constexpr auto pattern = [] {
    std::array<std::uint8_t, 256> table{};
    for (std::size_t i = 0; i < table.size(); ++i) {
      table[i] = static_cast<std::uint8_t>(i);
    }
    return table;
  }();
  payload_.resize(size);
  for (std::size_t i = 0; i < size; i += pattern.size()) {
    std::memcpy(payload_.data() + i, pattern.data(),
                std::min(pattern.size(), size - i));
  }
  return *this;
}

PacketBuilder& PacketBuilder::min_frame_size(std::size_t size) {
  min_frame_ = size;
  return *this;
}

Bytes PacketBuilder::build() const {
  Bytes frame;
  build_into(frame);
  return frame;
}

PacketBuilder& PacketBuilder::reset() {
  eth_.reset();
  vlans_.clear();
  qinq_outer_ = false;
  ipv4_.reset();
  ipv6_.reset();
  udp_.reset();
  tcp_.reset();
  icmp_.reset();
  payload_.clear();  // capacity survives for the next payload_size()
  min_frame_ = 60;
  return *this;
}

void PacketBuilder::build_into(Bytes& frame) const {
  if (!eth_) throw std::logic_error("PacketBuilder: ethernet layer required");

  std::size_t l4_size = 0;
  if (udp_) l4_size = UdpHeader::size();
  if (tcp_) l4_size = tcp_->size();
  if (icmp_) l4_size = IcmpHeader::size();

  std::size_t l3_size = 0;
  if (ipv4_) l3_size = ipv4_->size();
  if (ipv6_) l3_size = Ipv6Header::size();

  const std::size_t l2_size =
      EthernetHeader::size() + vlans_.size() * VlanTag::size();
  const std::size_t total =
      l2_size + l3_size + l4_size + payload_.size();

  frame.assign(std::max(total, min_frame_), 0);

  // Ethernet (+ VLAN stack): chain the ether types.
  EthernetHeader eth = *eth_;
  std::vector<VlanTag> vlans = vlans_;
  if (!vlans.empty()) {
    const std::uint16_t payload_type = eth.ether_type;
    eth.ether_type = static_cast<std::uint16_t>(
        qinq_outer_ ? EtherType::qinq : EtherType::vlan);
    for (std::size_t i = 0; i + 1 < vlans.size(); ++i) {
      vlans[i].ether_type = static_cast<std::uint16_t>(EtherType::vlan);
    }
    vlans.back().ether_type = payload_type;
  } else if (ipv4_) {
    eth.ether_type = static_cast<std::uint16_t>(EtherType::ipv4);
  } else if (ipv6_) {
    eth.ether_type = static_cast<std::uint16_t>(EtherType::ipv6);
  }
  eth.serialize_to(frame, 0);
  std::size_t offset = EthernetHeader::size();
  for (const auto& tag : vlans) {
    tag.serialize_to(frame, offset);
    offset += VlanTag::size();
  }

  const std::size_t l3_offset = offset;
  std::uint32_t pseudo_sum = 0;  // pseudo-header partial sum for L4 checksums

  if (ipv4_) {
    Ipv4Header ip = *ipv4_;
    ip.total_length =
        static_cast<std::uint16_t>(l3_size + l4_size + payload_.size());
    ip.serialize_to(frame, l3_offset);
    if (ip.checksum == 0) {
      ip.checksum = ip.compute_checksum();
    }
    write_be16(frame, l3_offset + 10, ip.checksum);
    std::uint8_t pseudo[12];
    BytesSpan p{pseudo, sizeof pseudo};
    write_be32(p, 0, ip.src.value());
    write_be32(p, 4, ip.dst.value());
    pseudo[8] = 0;
    pseudo[9] = ip.protocol;
    write_be16(p, 10, static_cast<std::uint16_t>(l4_size + payload_.size()));
    pseudo_sum = checksum_partial(BytesView{pseudo, sizeof pseudo});
    offset += ip.size();
  } else if (ipv6_) {
    Ipv6Header ip = *ipv6_;
    ip.payload_length = static_cast<std::uint16_t>(l4_size + payload_.size());
    ip.serialize_to(frame, l3_offset);
    std::uint8_t pseudo[40];
    BytesSpan p{pseudo, sizeof pseudo};
    for (std::size_t i = 0; i < 16; ++i) pseudo[i] = ip.src.octets()[i];
    for (std::size_t i = 0; i < 16; ++i) pseudo[16 + i] = ip.dst.octets()[i];
    write_be32(p, 32, ip.payload_length);
    write_be32(p, 36, ip.next_header);
    pseudo_sum = checksum_partial(BytesView{pseudo, sizeof pseudo});
    offset += Ipv6Header::size();
  }

  const std::size_t l4_offset = offset;
  // Payload first so L4 checksums can cover it.
  std::copy(payload_.begin(), payload_.end(),
            frame.begin() +
                static_cast<std::ptrdiff_t>(l4_offset + l4_size));

  if (udp_) {
    UdpHeader h = *udp_;
    h.length = static_cast<std::uint16_t>(UdpHeader::size() + payload_.size());
    h.checksum = 0;
    h.serialize_to(frame, l4_offset);
    const BytesView covered{frame.data() + l4_offset,
                            UdpHeader::size() + payload_.size()};
    std::uint16_t checksum =
        checksum_finish(checksum_partial(covered, pseudo_sum));
    if (checksum == 0) checksum = 0xffff;  // RFC 768: 0 means "no checksum"
    write_be16(frame, l4_offset + 6, checksum);
  } else if (tcp_) {
    TcpHeader h = *tcp_;
    h.checksum = 0;
    h.serialize_to(frame, l4_offset);
    const BytesView covered{frame.data() + l4_offset,
                            h.size() + payload_.size()};
    const std::uint16_t checksum =
        checksum_finish(checksum_partial(covered, pseudo_sum));
    write_be16(frame, l4_offset + 16, checksum);
  } else if (icmp_) {
    IcmpHeader h = *icmp_;
    h.checksum = 0;
    h.serialize_to(frame, l4_offset);
    const BytesView covered{frame.data() + l4_offset,
                            IcmpHeader::size() + payload_.size()};
    const std::uint16_t checksum = internet_checksum(covered);
    write_be16(frame, l4_offset + 2, checksum);
  }
}

Packet PacketBuilder::build_packet() const { return Packet{build()}; }

namespace {

// Largest IPv4 total_length or IPv6 payload_length: a tunnel edit whose
// result would not fit a 16-bit length field fails instead of wrapping it.
constexpr std::size_t kMaxLength16 = 0xffff;

// Put an IPv4 delivery header (plus an optional shim such as GRE) in front
// of the IP packet at `l3`, keeping the bytes before it as L2. Shared by GRE
// and IP-in-IP encap. False (frame untouched) when the delivery packet would
// exceed 65,535 bytes.
bool wrap_in_ipv4(Bytes& frame, std::size_t l3, Ipv4Address tunnel_src,
                  Ipv4Address tunnel_dst, IpProto proto, std::uint8_t ttl,
                  BytesView shim = {}) {
  const BytesView l2{frame.data(), l3};
  const BytesView inner{frame.data() + l3, frame.size() - l3};
  Ipv4Header outer;
  const std::size_t total = outer.size() + shim.size() + inner.size();
  if (total > kMaxLength16) return false;
  outer.src = tunnel_src;
  outer.dst = tunnel_dst;
  outer.protocol = static_cast<std::uint8_t>(proto);
  outer.ttl = ttl;
  outer.total_length = static_cast<std::uint16_t>(total);

  Bytes out(l2.size() + total);
  std::copy(l2.begin(), l2.end(), out.begin());
  outer.serialize_to(out, l2.size());
  const std::uint16_t checksum = outer.compute_checksum();
  write_be16(out, l2.size() + 10, checksum);
  std::copy(shim.begin(), shim.end(),
            out.begin() + static_cast<std::ptrdiff_t>(l2.size() + outer.size()));
  std::copy(inner.begin(), inner.end(),
            out.begin() + static_cast<std::ptrdiff_t>(l2.size() + outer.size() +
                                                      shim.size()));
  frame = std::move(out);
  return true;
}

}  // namespace

bool encapsulate_gre(Bytes& frame, Ipv4Address tunnel_src,
                     Ipv4Address tunnel_dst, std::uint8_t ttl) {
  const auto parsed = parse_packet(frame, {.parse_tunnels = false});
  if (!parsed.ok() || !parsed.outer.ipv4) return false;
  std::uint8_t shim[GreHeader::size()];
  GreHeader gre;
  gre.protocol = static_cast<std::uint16_t>(EtherType::ipv4);
  gre.serialize_to(BytesSpan{shim, sizeof shim}, 0);
  return wrap_in_ipv4(frame, parsed.outer.l3_offset, tunnel_src, tunnel_dst,
                      IpProto::gre, ttl, BytesView{shim, sizeof shim});
}

bool encapsulate_ipip(Bytes& frame, Ipv4Address tunnel_src,
                      Ipv4Address tunnel_dst, std::uint8_t ttl) {
  const auto parsed = parse_packet(frame, {.parse_tunnels = false});
  if (!parsed.ok() || !parsed.outer.ipv4) return false;
  return wrap_in_ipv4(frame, parsed.outer.l3_offset, tunnel_src, tunnel_dst,
                      IpProto::ipv4_encap, ttl);
}

bool encapsulate_ipv4_in_ipv6(Bytes& frame, std::size_t l3,
                              const Ipv6Address& tunnel_src,
                              const Ipv6Address& tunnel_dst,
                              std::uint8_t hop_limit) {
  if (l3 < 2 || l3 > frame.size() || frame.size() - l3 > kMaxLength16) {
    return false;
  }
  Ipv6Header outer;
  outer.src = tunnel_src;
  outer.dst = tunnel_dst;
  outer.next_header = static_cast<std::uint8_t>(IpProto::ipv4_encap);
  outer.hop_limit = hop_limit;
  // Cover everything behind L2, including any Ethernet min-frame padding
  // past the inner total_length, so decapsulation restores the original
  // frame byte-for-byte.
  outer.payload_length = static_cast<std::uint16_t>(frame.size() - l3);

  frame.insert(frame.begin() + static_cast<std::ptrdiff_t>(l3),
               Ipv6Header::size(), 0);
  outer.serialize_to(frame, l3);
  write_be16(frame, l3 - 2, static_cast<std::uint16_t>(EtherType::ipv6));
  return true;
}

bool encapsulate_ipv4_in_ipv6(Bytes& frame, const Ipv6Address& tunnel_src,
                              const Ipv6Address& tunnel_dst,
                              std::uint8_t hop_limit) {
  const auto parsed = parse_packet(frame, {.parse_tunnels = false});
  if (!parsed.ok() || !parsed.outer.ipv4) return false;
  return encapsulate_ipv4_in_ipv6(frame, parsed.outer.l3_offset, tunnel_src,
                                  tunnel_dst, hop_limit);
}

bool decapsulate_ipv4_in_ipv6(Bytes& frame, std::size_t l3) {
  if (l3 < 2 || frame.size() < l3 + Ipv6Header::size()) return false;
  frame.erase(frame.begin() + static_cast<std::ptrdiff_t>(l3),
              frame.begin() + static_cast<std::ptrdiff_t>(l3 +
                                                          Ipv6Header::size()));
  write_be16(frame, l3 - 2, static_cast<std::uint16_t>(EtherType::ipv4));
  return true;
}

bool encapsulate_vxlan(Bytes& frame, MacAddress outer_dst, MacAddress outer_src,
                       Ipv4Address tunnel_src, Ipv4Address tunnel_dst,
                       std::uint32_t vni, std::uint16_t src_port) {
  // Outer frame: Eth / IPv4 / UDP / VXLAN / (original frame).
  const std::size_t inner_size = frame.size();
  const std::size_t headers = EthernetHeader::size() + Ipv4Header::min_size() +
                              UdpHeader::size() + VxlanHeader::size();
  // The IPv4 total_length covers the UDP length, so one check bounds both.
  if (headers - EthernetHeader::size() + inner_size > kMaxLength16) {
    return false;
  }
  Bytes out(headers + inner_size);

  EthernetHeader eth;
  eth.dst = outer_dst;
  eth.src = outer_src;
  eth.ether_type = static_cast<std::uint16_t>(EtherType::ipv4);
  eth.serialize_to(out, 0);

  Ipv4Header ip;
  ip.src = tunnel_src;
  ip.dst = tunnel_dst;
  ip.protocol = static_cast<std::uint8_t>(IpProto::udp);
  ip.total_length = static_cast<std::uint16_t>(
      Ipv4Header::min_size() + UdpHeader::size() + VxlanHeader::size() +
      inner_size);
  ip.serialize_to(out, EthernetHeader::size());
  write_be16(out, EthernetHeader::size() + 10, ip.compute_checksum());

  UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = VxlanHeader::udp_port;
  udp.length = static_cast<std::uint16_t>(UdpHeader::size() +
                                          VxlanHeader::size() + inner_size);
  udp.checksum = 0;  // legal for UDP over IPv4; hardware encap commonly omits
  udp.serialize_to(out, EthernetHeader::size() + Ipv4Header::min_size());

  VxlanHeader vxlan;
  vxlan.vni = vni;
  vxlan.serialize_to(out, EthernetHeader::size() + Ipv4Header::min_size() +
                              UdpHeader::size());

  std::copy(frame.begin(), frame.end(),
            out.begin() + static_cast<std::ptrdiff_t>(headers));
  frame = std::move(out);
  return true;
}

bool decapsulate(Bytes& frame) {
  const auto parsed = parse_packet(frame);
  if (!parsed.ok()) return false;

  if (parsed.vxlan && parsed.inner_eth) {
    const std::size_t inner_l2 =
        parsed.outer.payload_offset + VxlanHeader::size();
    frame = Bytes(frame.begin() + static_cast<std::ptrdiff_t>(inner_l2),
                  frame.end());
    return true;
  }
  if (parsed.gre && parsed.inner) {
    // Keep the original L2, splice out outer IP + GRE.
    const std::size_t l3 = parsed.outer.l3_offset;
    const std::size_t inner_l3 = parsed.inner->l3_offset;
    Bytes out(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(l3));
    out.insert(out.end(), frame.begin() + static_cast<std::ptrdiff_t>(inner_l3),
               frame.end());
    frame = std::move(out);
    return true;
  }
  if (parsed.outer.ipv4 &&
      parsed.outer.ipv4->protocol ==
          static_cast<std::uint8_t>(IpProto::ipv4_encap)) {
    const std::size_t l3 = parsed.outer.l3_offset;
    const std::size_t inner_l3 = l3 + parsed.outer.ipv4->size();
    Bytes out(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(l3));
    out.insert(out.end(), frame.begin() + static_cast<std::ptrdiff_t>(inner_l3),
               frame.end());
    frame = std::move(out);
    return true;
  }
  return false;
}

bool push_vlan(Bytes& frame, std::uint16_t vid, std::uint8_t pcp,
               EtherType tpid) {
  auto eth = EthernetHeader::parse(frame, 0);
  if (!eth) return false;
  VlanTag tag;
  tag.vid = vid;
  tag.pcp = pcp;
  tag.ether_type = eth->ether_type;
  eth->ether_type = static_cast<std::uint16_t>(tpid);
  frame.insert(frame.begin() + EthernetHeader::size(), VlanTag::size(), 0);
  eth->serialize_to(frame, 0);
  tag.serialize_to(frame, EthernetHeader::size());
  return true;
}

bool pop_vlan(Bytes& frame) {
  auto eth = EthernetHeader::parse(frame, 0);
  if (!eth) return false;
  if (eth->ether_type != static_cast<std::uint16_t>(EtherType::vlan) &&
      eth->ether_type != static_cast<std::uint16_t>(EtherType::qinq)) {
    return false;
  }
  const auto tag = VlanTag::parse(frame, EthernetHeader::size());
  if (!tag) return false;
  eth->ether_type = tag->ether_type;
  frame.erase(frame.begin() + EthernetHeader::size(),
              frame.begin() + EthernetHeader::size() + VlanTag::size());
  eth->serialize_to(frame, 0);
  return true;
}

namespace {

bool rewrite_ipv4_addr(Bytes& frame, const ParsedPacket& parsed,
                       Ipv4Address new_addr, bool src) {
  if (!parsed.ok() || !parsed.outer.ipv4) return false;
  const auto& ip = *parsed.outer.ipv4;
  const std::size_t l3 = parsed.outer.l3_offset;
  const std::size_t addr_offset = l3 + (src ? 12 : 16);
  const std::uint32_t old_value = (src ? ip.src : ip.dst).value();
  const std::uint32_t new_value = new_addr.value();
  if (old_value == new_value) return true;

  write_be32(frame, addr_offset, new_value);

  // Patch the IPv4 header checksum incrementally.
  const std::uint16_t new_ip_checksum =
      checksum_incremental_update32(ip.checksum, old_value, new_value);
  write_be16(frame, l3 + 10, new_ip_checksum);

  // TCP/UDP checksums cover the pseudo-header, so patch them too.
  if (parsed.outer.tcp) {
    const std::uint16_t patched = checksum_incremental_update32(
        parsed.outer.tcp->checksum, old_value, new_value);
    write_be16(frame, parsed.outer.l4_offset + 16, patched);
  } else if (parsed.outer.udp && parsed.outer.udp->checksum != 0) {
    std::uint16_t patched = checksum_incremental_update32(
        parsed.outer.udp->checksum, old_value, new_value);
    if (patched == 0) patched = 0xffff;
    write_be16(frame, parsed.outer.l4_offset + 6, patched);
  }
  return true;
}

}  // namespace

bool rewrite_ipv4_src(Bytes& frame, const ParsedPacket& parsed,
                      Ipv4Address new_src) {
  return rewrite_ipv4_addr(frame, parsed, new_src, /*src=*/true);
}

bool rewrite_ipv4_dst(Bytes& frame, const ParsedPacket& parsed,
                      Ipv4Address new_dst) {
  return rewrite_ipv4_addr(frame, parsed, new_dst, /*src=*/false);
}

bool decrement_ttl(Bytes& frame, const ParsedPacket& parsed) {
  if (!parsed.ok() || !parsed.outer.ipv4) return false;
  const auto& ip = *parsed.outer.ipv4;
  if (ip.ttl == 0) return false;
  const std::size_t l3 = parsed.outer.l3_offset;
  frame[l3 + 8] = static_cast<std::uint8_t>(ip.ttl - 1);
  // TTL and protocol share a 16-bit checksum word: old = (ttl<<8)|proto.
  const std::uint16_t old_word =
      static_cast<std::uint16_t>((std::uint16_t{ip.ttl} << 8) | ip.protocol);
  const std::uint16_t new_word = static_cast<std::uint16_t>(
      (std::uint16_t{static_cast<std::uint8_t>(ip.ttl - 1)} << 8) |
      ip.protocol);
  const std::uint16_t patched =
      checksum_incremental_update(ip.checksum, old_word, new_word);
  write_be16(frame, l3 + 10, patched);
  return true;
}

}  // namespace flexsfp::net
