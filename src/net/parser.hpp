// Header-stack parser: turns raw frame bytes into typed header values plus
// the byte offsets needed for in-place edits. This mirrors what the parse
// graph of an RMT-style Packet Processing Engine extracts into the per-packet
// header vector.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/flow.hpp"
#include "net/headers.hpp"
#include "net/packet.hpp"

namespace flexsfp::net {

enum class ParseError : std::uint8_t {
  none = 0,
  truncated_ethernet,
  truncated_vlan,
  too_many_vlan_tags,
  bad_ip_version,
  truncated_ipv4,
  truncated_ipv6,
  truncated_l4,
  bad_gre,
  bad_vxlan,
};

[[nodiscard]] std::string to_string(ParseError error);

/// Result of parsing one encapsulation layer of IP + L4.
struct IpLayer {
  std::optional<Ipv4Header> ipv4;
  std::optional<Ipv6Header> ipv6;
  std::size_t l3_offset = 0;

  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;
  std::optional<IcmpHeader> icmp;
  std::size_t l4_offset = 0;

  /// Offset of the first byte after the parsed L4 header (payload).
  std::size_t payload_offset = 0;

  [[nodiscard]] bool has_ip() const {
    return ipv4.has_value() || ipv6.has_value();
  }
  /// IPv4 5-tuple for this layer; nullopt for non-IPv4 traffic.
  [[nodiscard]] std::optional<FiveTuple> five_tuple() const;
};

/// Fully parsed view of a frame. Offsets index into the original buffer so
/// applications can rewrite fields in place.
struct ParsedPacket {
  ParseError error = ParseError::none;

  EthernetHeader eth;
  std::vector<VlanTag> vlan_tags;  // outermost first; at most 2 (QinQ)
  std::uint16_t effective_ether_type = 0;  // after VLAN tags

  IpLayer outer;

  // Tunnel payloads, when recognized and inner parsing is enabled.
  std::optional<GreHeader> gre;
  std::optional<VxlanHeader> vxlan;
  std::optional<EthernetHeader> inner_eth;  // VXLAN carries full frames
  std::optional<IpLayer> inner;

  [[nodiscard]] bool ok() const { return error == ParseError::none; }
  [[nodiscard]] bool is_ipv4() const { return outer.ipv4.has_value(); }
  /// Outer-layer IPv4 5-tuple (the key most apps match on).
  [[nodiscard]] std::optional<FiveTuple> five_tuple() const {
    return outer.five_tuple();
  }
};

struct ParserOptions {
  /// Parse into recognized GRE/VXLAN tunnels (one level).
  bool parse_tunnels = true;
  /// Maximum number of stacked VLAN tags accepted.
  std::size_t max_vlan_tags = 2;
};

/// Parse an Ethernet frame. On error the returned ParsedPacket carries the
/// error code and every header successfully parsed before the failure —
/// exactly what a hardware parser hands to the deparser for a reject path.
[[nodiscard]] ParsedPacket parse_packet(BytesView data,
                                        const ParserOptions& options = {});
[[nodiscard]] inline ParsedPacket parse_packet(
    const Packet& packet, const ParserOptions& options = {}) {
  return parse_packet(packet.data(), options);
}

/// Structural validation issues beyond parseability — what the sanitizer app
/// screens for (§3 "packet sanitization and protocol validation").
enum class ValidationIssue : std::uint8_t {
  ipv4_bad_checksum,
  ipv4_total_length_mismatch,
  ipv4_ttl_zero,
  ipv4_fragment,          // fragments often blocked at hardened edges
  ipv4_options_present,   // deprecated/rarely legitimate
  ipv4_martian_source,    // loopback/multicast source address
  ipv6_payload_length_mismatch,
  ipv6_hop_limit_zero,
  tcp_bad_flags,          // e.g. SYN+FIN, null scan
  udp_length_mismatch,
  frame_undersized,       // < 60 bytes before FCS
};

[[nodiscard]] std::string to_string(ValidationIssue issue);

/// Run all structural checks; returns every issue found (empty = clean).
[[nodiscard]] std::vector<ValidationIssue> validate_packet(
    const ParsedPacket& parsed, BytesView data);

}  // namespace flexsfp::net
