// Fixed wire layouts of the headers a byte-peek fast path reads, and the one
// classifier that decides when a fixed offset is as good as a parse.
//
// StaticNat and LwAftr skip parse_packet for their common frames: an
// untagged IPv4 TCP/UDP frame, and (for the AFTR) the same IPv4 packet
// behind a plain IPv6 tunnel header. The classifier below accepts a frame
// only when parse_packet is guaranteed to succeed and to place every field
// the caller reads at the offsets declared here; every other frame goes to
// the parser, so a fast shape can never disagree with it.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/bytes.hpp"
#include "net/headers.hpp"

namespace flexsfp::net::wire {

// Every field is a byte array, so the structs have no padding and offsetof
// gives the RFC byte offsets; only the offsets are used, never the structs.
struct EthernetWire {  // IEEE 802.3, untagged
  std::uint8_t dst[6], src[6], ether_type[2];
};
struct Ipv4Wire {  // RFC 791, without options
  std::uint8_t version_ihl, tos, total_length[2], identification[2],
      flags_fragment[2], ttl, protocol, checksum[2], src[4], dst[4];
};
struct Ipv6Wire {  // RFC 8200 fixed header
  std::uint8_t version_class_flow[4], payload_length[2], next_header,
      hop_limit, src[16], dst[16];
};
struct TcpWire {  // RFC 9293, without options
  std::uint8_t src_port[2], dst_port[2], seq[4], ack[4], data_offset,
      flags, window[2], checksum[2], urgent[2];
};
struct UdpWire {  // RFC 768
  std::uint8_t src_port[2], dst_port[2], length[2], checksum[2];
};
static_assert(sizeof(EthernetWire) == EthernetHeader::size());
static_assert(sizeof(Ipv4Wire) == Ipv4Header::min_size());
static_assert(sizeof(Ipv6Wire) == Ipv6Header::size());
static_assert(sizeof(TcpWire) == TcpHeader::min_size());
static_assert(sizeof(UdpWire) == UdpHeader::size());

// Field offsets relative to the start of their header.
constexpr std::size_t kEtherType = offsetof(EthernetWire, ether_type);
constexpr std::size_t kIpv4VersionIhl = offsetof(Ipv4Wire, version_ihl);
constexpr std::size_t kIpv4FlagsFragment = offsetof(Ipv4Wire, flags_fragment);
constexpr std::size_t kIpv4Protocol = offsetof(Ipv4Wire, protocol);
constexpr std::size_t kIpv4Checksum = offsetof(Ipv4Wire, checksum);
constexpr std::size_t kIpv4Src = offsetof(Ipv4Wire, src);
constexpr std::size_t kIpv4Dst = offsetof(Ipv4Wire, dst);
constexpr std::size_t kIpv6VersionClassFlow =
    offsetof(Ipv6Wire, version_class_flow);
constexpr std::size_t kIpv6NextHeader = offsetof(Ipv6Wire, next_header);
constexpr std::size_t kIpv6HopLimit = offsetof(Ipv6Wire, hop_limit);
constexpr std::size_t kIpv6Src = offsetof(Ipv6Wire, src);
constexpr std::size_t kIpv6Dst = offsetof(Ipv6Wire, dst);
constexpr std::size_t kL4SrcPort = offsetof(UdpWire, src_port);
constexpr std::size_t kL4DstPort = offsetof(UdpWire, dst_port);
static_assert(offsetof(TcpWire, src_port) == kL4SrcPort &&
              offsetof(TcpWire, dst_port) == kL4DstPort);
constexpr std::size_t kTcpDataOffset = offsetof(TcpWire, data_offset);
constexpr std::size_t kTcpChecksum = offsetof(TcpWire, checksum);
constexpr std::size_t kUdpChecksum = offsetof(UdpWire, checksum);
static_assert(kEtherType == 12);
static_assert(kIpv4VersionIhl == 0 && kIpv4FlagsFragment == 6);
static_assert(kIpv4Protocol == 9 && kIpv4Checksum == 10);
static_assert(kIpv4Src == 12 && kIpv4Dst == 16);
static_assert(kIpv6VersionClassFlow == 0 && kIpv6NextHeader == 6);
static_assert(kIpv6HopLimit == 7 && kIpv6Src == 8 && kIpv6Dst == 24);
static_assert(kL4SrcPort == 0 && kL4DstPort == 2);
static_assert(kTcpDataOffset == 12 && kTcpChecksum == 16 && kUdpChecksum == 6);

/// L3 of an untagged Ethernet frame, and the inner IPv4 header behind an
/// untagged Ethernet + fixed IPv6 tunnel header (lw4o6, RFC 7596).
constexpr std::size_t kL3 = sizeof(EthernetWire);
constexpr std::size_t kTunnelL3 = kL3 + sizeof(Ipv6Wire);
static_assert(kL3 == 14 && kTunnelL3 == 54);

/// True when `b` holds a whole Ethernet header whose EtherType is `type`, so
/// L3 starts at kL3 (a VLAN tag would show its TPID here instead).
[[nodiscard]] inline bool untagged_ether_type(BytesView b, EtherType type) {
  return b.size() >= kL3 &&
         read_be16(b, kEtherType) == static_cast<std::uint16_t>(type);
}

/// Byte-peek shape of the IPv4 packet at `l3`. slow_path means "use the
/// full parser". tcp/udp mean the IPv4 header is version 4 with no options
/// (ihl 5), is not a fragment (MF clear, offset 0; DF may be set), and is
/// followed by a fully present option-less TCP header or a UDP header not
/// on the VXLAN port. parse_packet reads such a packet, wherever the caller
/// has established that it sits, without error and with its L4 header at
/// l3 + 20. Options, fragments, ICMP/GRE/other protocols, VXLAN's UDP port
/// and truncations all return slow_path.
enum class L4Shape : std::uint8_t { slow_path, tcp, udp };

[[nodiscard]] inline L4Shape ipv4_shape(BytesView b, std::size_t l3) {
  const std::size_t l4 = l3 + sizeof(Ipv4Wire);
  if (b.size() < l4) return L4Shape::slow_path;
  if (b[l3 + kIpv4VersionIhl] != 0x45) return L4Shape::slow_path;
  if ((read_be16(b, l3 + kIpv4FlagsFragment) & 0x3fff) != 0) {
    return L4Shape::slow_path;
  }
  const std::uint8_t proto = b[l3 + kIpv4Protocol];
  if (proto == static_cast<std::uint8_t>(IpProto::tcp)) {
    if (b.size() < l4 + sizeof(TcpWire)) return L4Shape::slow_path;
    if ((b[l4 + kTcpDataOffset] >> 4) != 5) return L4Shape::slow_path;
    return L4Shape::tcp;
  }
  if (proto == static_cast<std::uint8_t>(IpProto::udp)) {
    if (b.size() < l4 + sizeof(UdpWire)) return L4Shape::slow_path;
    if (read_be16(b, l4 + kL4DstPort) == VxlanHeader::udp_port) {
      return L4Shape::slow_path;  // parse_packet would attempt VXLAN decap
    }
    return L4Shape::udp;
  }
  return L4Shape::slow_path;
}

/// ipv4_shape of an untagged IPv4 frame (EtherType 0x0800 at byte 12, L3
/// at kL3); slow_path for every other frame.
[[nodiscard]] inline L4Shape ipv4_frame_shape(BytesView b) {
  if (!untagged_ether_type(b, EtherType::ipv4)) return L4Shape::slow_path;
  return ipv4_shape(b, kL3);
}

}  // namespace flexsfp::net::wire
