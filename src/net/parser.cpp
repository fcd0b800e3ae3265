#include "net/parser.hpp"

#include "net/checksum.hpp"

namespace flexsfp::net {

std::string to_string(ParseError error) {
  switch (error) {
    case ParseError::none: return "none";
    case ParseError::truncated_ethernet: return "truncated-ethernet";
    case ParseError::truncated_vlan: return "truncated-vlan";
    case ParseError::too_many_vlan_tags: return "too-many-vlan-tags";
    case ParseError::bad_ip_version: return "bad-ip-version";
    case ParseError::truncated_ipv4: return "truncated-ipv4";
    case ParseError::truncated_ipv6: return "truncated-ipv6";
    case ParseError::truncated_l4: return "truncated-l4";
    case ParseError::bad_gre: return "bad-gre";
    case ParseError::bad_vxlan: return "bad-vxlan";
  }
  return "parse-error(?)";
}

std::optional<FiveTuple> IpLayer::five_tuple() const {
  if (!ipv4) return std::nullopt;
  FiveTuple t;
  t.src = ipv4->src;
  t.dst = ipv4->dst;
  t.protocol = ipv4->protocol;
  if (tcp) {
    t.src_port = tcp->src_port;
    t.dst_port = tcp->dst_port;
  } else if (udp) {
    t.src_port = udp->src_port;
    t.dst_port = udp->dst_port;
  }
  return t;
}

namespace {

// Parse one IP + L4 layer starting at `offset`; fills `layer`, returns the
// first ParseError hit (or none). A missing/unknown L4 is not an error —
// payload_offset then points just past the IP header.
ParseError parse_ip_layer(BytesView data, std::size_t offset,
                          std::uint16_t ether_type, IpLayer& layer) {
  layer.l3_offset = offset;
  const bool expect_v4 = ether_type == static_cast<std::uint16_t>(EtherType::ipv4);
  const bool expect_v6 = ether_type == static_cast<std::uint16_t>(EtherType::ipv6);
  // The EtherType promises an IP version. When the version nibble is there
  // to read and disagrees, that is its own malformation (the encapsulation
  // lies about its payload), distinct from a merely short header.
  if ((expect_v4 || expect_v6) && offset < data.size() &&
      (data[offset] >> 4) != (expect_v4 ? 4 : 6)) {
    return ParseError::bad_ip_version;
  }
  std::uint8_t l4_proto = 0;
  if (expect_v4) {
    auto ipv4 = Ipv4Header::parse(data, offset);
    if (!ipv4) return ParseError::truncated_ipv4;
    layer.ipv4 = *ipv4;
    layer.l4_offset = offset + ipv4->size();
    l4_proto = ipv4->protocol;
  } else if (expect_v6) {
    auto ipv6 = Ipv6Header::parse(data, offset);
    if (!ipv6) return ParseError::truncated_ipv6;
    layer.ipv6 = *ipv6;
    layer.l4_offset = offset + Ipv6Header::size();
    l4_proto = ipv6->next_header;
  } else {
    return ParseError::bad_ip_version;
  }

  layer.payload_offset = layer.l4_offset;
  // Do not attempt L4 parsing on non-first fragments: the transport header
  // is only present in fragment 0.
  if (layer.ipv4 && layer.ipv4->fragment_offset != 0) return ParseError::none;

  switch (static_cast<IpProto>(l4_proto)) {
    case IpProto::tcp: {
      auto tcp = TcpHeader::parse(data, layer.l4_offset);
      if (!tcp) return ParseError::truncated_l4;
      layer.tcp = *tcp;
      layer.payload_offset = layer.l4_offset + tcp->size();
      break;
    }
    case IpProto::udp: {
      auto udp = UdpHeader::parse(data, layer.l4_offset);
      if (!udp) return ParseError::truncated_l4;
      layer.udp = *udp;
      layer.payload_offset = layer.l4_offset + UdpHeader::size();
      break;
    }
    case IpProto::icmp:
    case IpProto::icmpv6: {
      auto icmp = IcmpHeader::parse(data, layer.l4_offset);
      if (!icmp) return ParseError::truncated_l4;
      layer.icmp = *icmp;
      layer.payload_offset = layer.l4_offset + IcmpHeader::size();
      break;
    }
    default:
      break;  // unknown L4: leave payload at end of IP header
  }
  return ParseError::none;
}

}  // namespace

ParsedPacket parse_packet(BytesView data, const ParserOptions& options) {
  ParsedPacket out;

  const auto eth = EthernetHeader::parse(data, 0);
  if (!eth) {
    out.error = ParseError::truncated_ethernet;
    return out;
  }
  out.eth = *eth;

  std::size_t offset = EthernetHeader::size();
  std::uint16_t ether_type = eth->ether_type;
  while (ether_type == static_cast<std::uint16_t>(EtherType::vlan) ||
         ether_type == static_cast<std::uint16_t>(EtherType::qinq)) {
    if (out.vlan_tags.size() >= options.max_vlan_tags) {
      out.error = ParseError::too_many_vlan_tags;
      return out;
    }
    const auto tag = VlanTag::parse(data, offset);
    if (!tag) {
      out.error = ParseError::truncated_vlan;
      return out;
    }
    out.vlan_tags.push_back(*tag);
    offset += VlanTag::size();
    ether_type = tag->ether_type;
  }
  out.effective_ether_type = ether_type;

  if (ether_type != static_cast<std::uint16_t>(EtherType::ipv4) &&
      ether_type != static_cast<std::uint16_t>(EtherType::ipv6)) {
    return out;  // non-IP (ARP, mgmt, ...) is valid but has no IP layer
  }

  out.error = parse_ip_layer(data, offset, ether_type, out.outer);
  if (out.error != ParseError::none || !options.parse_tunnels) return out;

  // Tunnel recognition: GRE and VXLAN-over-UDP, one level deep.
  if (out.outer.ipv4 &&
      out.outer.ipv4->protocol == static_cast<std::uint8_t>(IpProto::gre)) {
    const auto gre = GreHeader::parse(data, out.outer.l4_offset);
    if (!gre) {
      out.error = ParseError::bad_gre;
      return out;
    }
    out.gre = *gre;
    IpLayer inner;
    const auto err = parse_ip_layer(data, out.outer.l4_offset + GreHeader::size(),
                                    gre->protocol, inner);
    if (err == ParseError::none) out.inner = inner;
    // An unknown GRE payload type is fine; we simply don't parse deeper.
  } else if (out.outer.udp && out.outer.udp->dst_port == VxlanHeader::udp_port) {
    if (out.outer.payload_offset + VxlanHeader::size() > data.size()) {
      out.error = ParseError::bad_vxlan;
      return out;
    }
    // A payload without the VXLAN I flag is plain UDP to port 4789, the way
    // an unknown GRE payload is plain GRE: the outer layers stay valid.
    const auto vxlan = VxlanHeader::parse(data, out.outer.payload_offset);
    if (!vxlan) return out;
    out.vxlan = *vxlan;
    const std::size_t inner_l2 = out.outer.payload_offset + VxlanHeader::size();
    const auto inner_eth = EthernetHeader::parse(data, inner_l2);
    if (inner_eth) {
      out.inner_eth = *inner_eth;
      IpLayer inner;
      const auto err = parse_ip_layer(data, inner_l2 + EthernetHeader::size(),
                                      inner_eth->ether_type, inner);
      if (err == ParseError::none) out.inner = inner;
    }
  }
  return out;
}

std::string to_string(ValidationIssue issue) {
  switch (issue) {
    case ValidationIssue::ipv4_bad_checksum: return "ipv4-bad-checksum";
    case ValidationIssue::ipv4_total_length_mismatch:
      return "ipv4-total-length-mismatch";
    case ValidationIssue::ipv4_ttl_zero: return "ipv4-ttl-zero";
    case ValidationIssue::ipv4_fragment: return "ipv4-fragment";
    case ValidationIssue::ipv4_options_present: return "ipv4-options-present";
    case ValidationIssue::ipv4_martian_source: return "ipv4-martian-source";
    case ValidationIssue::ipv6_payload_length_mismatch:
      return "ipv6-payload-length-mismatch";
    case ValidationIssue::ipv6_hop_limit_zero: return "ipv6-hop-limit-zero";
    case ValidationIssue::tcp_bad_flags: return "tcp-bad-flags";
    case ValidationIssue::udp_length_mismatch: return "udp-length-mismatch";
    case ValidationIssue::frame_undersized: return "frame-undersized";
  }
  return "validation-issue(?)";
}

std::vector<ValidationIssue> validate_packet(const ParsedPacket& parsed,
                                             BytesView data) {
  std::vector<ValidationIssue> issues;
  if (data.size() < 60) issues.push_back(ValidationIssue::frame_undersized);

  if (parsed.outer.ipv4) {
    const auto& ip = *parsed.outer.ipv4;
    if (ip.compute_checksum() != ip.checksum) {
      issues.push_back(ValidationIssue::ipv4_bad_checksum);
    }
    const std::size_t ip_bytes_available = data.size() - parsed.outer.l3_offset;
    // total_length may be less than available bytes (Ethernet min-frame
    // padding) but never more.
    if (ip.total_length < ip.size() || ip.total_length > ip_bytes_available) {
      issues.push_back(ValidationIssue::ipv4_total_length_mismatch);
    }
    if (ip.ttl == 0) issues.push_back(ValidationIssue::ipv4_ttl_zero);
    if (ip.more_fragments || ip.fragment_offset != 0) {
      issues.push_back(ValidationIssue::ipv4_fragment);
    }
    if (ip.ihl > 5) issues.push_back(ValidationIssue::ipv4_options_present);
    if (ip.src.is_loopback() || ip.src.is_multicast()) {
      issues.push_back(ValidationIssue::ipv4_martian_source);
    }
    if (parsed.outer.udp) {
      const std::size_t udp_bytes_available =
          parsed.outer.l3_offset + ip.total_length >= parsed.outer.l4_offset
              ? parsed.outer.l3_offset + ip.total_length - parsed.outer.l4_offset
              : 0;
      if (parsed.outer.udp->length < UdpHeader::size() ||
          parsed.outer.udp->length > udp_bytes_available) {
        issues.push_back(ValidationIssue::udp_length_mismatch);
      }
    }
  }

  if (parsed.outer.ipv6) {
    const auto& ip6 = *parsed.outer.ipv6;
    const std::size_t available =
        data.size() - parsed.outer.l3_offset - Ipv6Header::size();
    if (ip6.payload_length > available) {
      issues.push_back(ValidationIssue::ipv6_payload_length_mismatch);
    }
    if (ip6.hop_limit == 0) {
      issues.push_back(ValidationIssue::ipv6_hop_limit_zero);
    }
  }

  if (parsed.outer.tcp) {
    const std::uint8_t flags = parsed.outer.tcp->flags;
    const bool syn_fin = (flags & TcpHeader::flag_syn) != 0 &&
                         (flags & TcpHeader::flag_fin) != 0;
    const bool null_scan = (flags & 0x3f) == 0;
    if (syn_fin || null_scan) {
      issues.push_back(ValidationIssue::tcp_bad_flags);
    }
  }
  return issues;
}

}  // namespace flexsfp::net
