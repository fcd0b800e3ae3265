// Fluent frame construction with automatic length and checksum fixup, plus
// the in-place encapsulation/decapsulation primitives the tunnel app uses.
#pragma once

#include <cstdint>
#include <optional>

#include "net/headers.hpp"
#include "net/packet.hpp"
#include "net/parser.hpp"

namespace flexsfp::net {

/// Builds a frame inner-to-outer-agnostic: call the layer methods in wire
/// order (ethernet, [vlan...], ip, l4, payload) then build(). Lengths and
/// checksums are computed in build(); explicitly set values are preserved.
class PacketBuilder {
 public:
  PacketBuilder& ethernet(MacAddress dst, MacAddress src,
                          EtherType type = EtherType::ipv4);
  PacketBuilder& vlan(std::uint16_t vid, std::uint8_t pcp = 0);
  /// Outer 802.1ad service tag followed by an inner 802.1Q tag.
  PacketBuilder& qinq(std::uint16_t service_vid, std::uint16_t customer_vid);
  PacketBuilder& ipv4(Ipv4Address src, Ipv4Address dst, IpProto proto,
                      std::uint8_t ttl = 64);
  PacketBuilder& ipv4_header(const Ipv4Header& header);
  PacketBuilder& ipv6(Ipv6Address src, Ipv6Address dst, IpProto next,
                      std::uint8_t hop_limit = 64);
  PacketBuilder& udp(std::uint16_t src_port, std::uint16_t dst_port);
  PacketBuilder& tcp(std::uint16_t src_port, std::uint16_t dst_port,
                     std::uint8_t flags = TcpHeader::flag_ack);
  PacketBuilder& icmp_echo(std::uint16_t id, std::uint16_t seq);
  /// Raw payload bytes.
  PacketBuilder& payload(Bytes bytes);
  /// Zero payload of `size` bytes (pattern-filled for identification).
  PacketBuilder& payload_size(std::size_t size);
  /// Pad the final frame to at least `size` bytes (default: Ethernet
  /// 60-byte minimum is always applied).
  PacketBuilder& min_frame_size(std::size_t size);

  /// Assemble the frame. Can be called repeatedly; the builder is const
  /// after configuration.
  [[nodiscard]] Bytes build() const;
  [[nodiscard]] Packet build_packet() const;
  /// build() into an existing buffer, reusing its capacity — the
  /// allocation-free path for pooled packets (TrafficGen's steady state).
  void build_into(Bytes& frame) const;

  /// Forget every configured layer but keep the payload buffer's capacity,
  /// so one builder instance can assemble a frame per packet without
  /// touching the allocator.
  PacketBuilder& reset();

 private:
  std::optional<EthernetHeader> eth_;
  std::vector<VlanTag> vlans_;
  bool qinq_outer_ = false;
  std::optional<Ipv4Header> ipv4_;
  std::optional<Ipv6Header> ipv6_;
  std::optional<UdpHeader> udp_;
  std::optional<TcpHeader> tcp_;
  std::optional<IcmpHeader> icmp_;
  Bytes payload_;
  std::size_t min_frame_ = 60;
};

// --- In-place transformations (the datapath edit primitives) ---------------

/// Push a GRE/IPv4 delivery header in front of the IP payload of `frame`.
/// The original Ethernet header is kept; the original IP packet becomes the
/// GRE payload. Returns false if the frame has no outer IPv4 layer or the
/// delivery packet would exceed the 16-bit IPv4 total_length.
bool encapsulate_gre(Bytes& frame, Ipv4Address tunnel_src,
                     Ipv4Address tunnel_dst, std::uint8_t ttl = 64);

/// Push a full VXLAN stack (outer Ethernet/IPv4/UDP/VXLAN) around the whole
/// original frame. Returns false when the outer IPv4 total_length would
/// exceed 65,535 bytes.
bool encapsulate_vxlan(Bytes& frame, MacAddress outer_dst, MacAddress outer_src,
                       Ipv4Address tunnel_src, Ipv4Address tunnel_dst,
                       std::uint32_t vni, std::uint16_t src_port = 49152);

/// Push an IP-in-IP delivery header (protocol 4). Same failure cases as
/// encapsulate_gre.
bool encapsulate_ipip(Bytes& frame, Ipv4Address tunnel_src,
                      Ipv4Address tunnel_dst, std::uint8_t ttl = 64);

/// Push an IPv6 delivery header (next-header 4) in front of the IPv4 packet
/// that starts at `l3` — the lw4o6 softwire encapsulation (RFC 7596). The
/// caller has already found the outer L3 offset; nothing is parsed. The
/// bytes before `l3` (Ethernet header and any VLAN tags) are kept and the
/// EtherType at l3 - 2 flips to IPv6. In-place: the 40-byte shim is
/// inserted into the existing buffer, so a pooled packet's capacity is
/// reused after the first growth. Returns false (frame untouched) when
/// `l3` lies outside [2, frame.size()] or the frame's bytes from `l3` on
/// do not fit the 16-bit IPv6 payload_length.
bool encapsulate_ipv4_in_ipv6(Bytes& frame, std::size_t l3,
                              const Ipv6Address& tunnel_src,
                              const Ipv6Address& tunnel_dst,
                              std::uint8_t hop_limit = 64);

/// The same after locating the outer IPv4 layer with parse_packet; false
/// when the frame carries none.
bool encapsulate_ipv4_in_ipv6(Bytes& frame, const Ipv6Address& tunnel_src,
                              const Ipv6Address& tunnel_dst,
                              std::uint8_t hop_limit = 64);

/// Strip the 40-byte IPv6 delivery header at `l3`, restoring the inner IPv4
/// packet behind the original L2 — the lw4o6 decapsulation. The caller has
/// checked that the header at `l3` is IPv6 with next-header 4; nothing is
/// parsed. Allocation-free (erase + 2-byte EtherType patch at l3 - 2).
/// Returns false when the frame is too short to hold the header.
bool decapsulate_ipv4_in_ipv6(Bytes& frame, std::size_t l3);

/// Strip a recognized GRE/VXLAN/IP-in-IP delivery header, restoring the
/// inner packet as a standalone frame. Returns false when `frame` carries no
/// recognized tunnel.
bool decapsulate(Bytes& frame);

/// Insert a 802.1Q tag after the Ethernet header. Returns false only if the
/// frame is too short to hold an Ethernet header.
bool push_vlan(Bytes& frame, std::uint16_t vid, std::uint8_t pcp = 0,
               EtherType tpid = EtherType::vlan);

/// Remove the outermost VLAN tag; false when none present.
bool pop_vlan(Bytes& frame);

/// Rewrite the IPv4 source address in place, patching the IPv4 header
/// checksum and any TCP/UDP checksum incrementally (RFC 1624) — the exact
/// operation the paper's NAT case study performs at line rate.
bool rewrite_ipv4_src(Bytes& frame, const ParsedPacket& parsed,
                      Ipv4Address new_src);

/// Same for the destination address (reverse NAT direction).
bool rewrite_ipv4_dst(Bytes& frame, const ParsedPacket& parsed,
                      Ipv4Address new_dst);

/// Decrement TTL and patch the header checksum; false if TTL already 0.
bool decrement_ttl(Bytes& frame, const ParsedPacket& parsed);

}  // namespace flexsfp::net
