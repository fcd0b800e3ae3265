#include "net/parser.hpp"

#include <gtest/gtest.h>

#include "net/builder.hpp"

namespace flexsfp::net {
namespace {

MacAddress mac(std::uint64_t v) { return MacAddress::from_u64(v); }

Bytes udp_frame() {
  return PacketBuilder()
      .ethernet(mac(2), mac(1))
      .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
            Ipv4Address::from_octets(10, 0, 0, 2), IpProto::udp)
      .udp(1111, 2222)
      .payload_size(20)
      .build();
}

TEST(Parser, ExtractsFiveTuple) {
  const auto parsed = parse_packet(udp_frame());
  ASSERT_TRUE(parsed.ok());
  const auto tuple = parsed.five_tuple();
  ASSERT_TRUE(tuple);
  EXPECT_EQ(tuple->src, Ipv4Address::from_octets(10, 0, 0, 1));
  EXPECT_EQ(tuple->dst, Ipv4Address::from_octets(10, 0, 0, 2));
  EXPECT_EQ(tuple->src_port, 1111);
  EXPECT_EQ(tuple->dst_port, 2222);
  EXPECT_EQ(tuple->protocol, static_cast<std::uint8_t>(IpProto::udp));
}

TEST(Parser, OffsetsPointIntoBuffer) {
  const Bytes frame = udp_frame();
  const auto parsed = parse_packet(frame);
  EXPECT_EQ(parsed.outer.l3_offset, EthernetHeader::size());
  EXPECT_EQ(parsed.outer.l4_offset, EthernetHeader::size() + 20);
  EXPECT_EQ(parsed.outer.payload_offset, EthernetHeader::size() + 20 + 8);
  // The bytes at l4_offset really are the UDP source port.
  EXPECT_EQ(read_be16(frame, parsed.outer.l4_offset), 1111);
}

TEST(Parser, NonIpFramesParseWithoutIpLayer) {
  Bytes frame(60, 0);
  EthernetHeader eth;
  eth.dst = mac(2);
  eth.src = mac(1);
  eth.ether_type = static_cast<std::uint16_t>(EtherType::arp);
  eth.serialize_to(frame, 0);
  const auto parsed = parse_packet(frame);
  EXPECT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.outer.has_ip());
  EXPECT_FALSE(parsed.five_tuple().has_value());
}

TEST(Parser, TruncatedEthernetReported) {
  const auto parsed = parse_packet(Bytes(10, 0));
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error, ParseError::truncated_ethernet);
}

TEST(Parser, TruncatedIpv4Reported) {
  Bytes frame(20, 0);
  EthernetHeader eth;
  eth.ether_type = static_cast<std::uint16_t>(EtherType::ipv4);
  eth.serialize_to(frame, 0);
  frame[14] = 0x45;
  const auto parsed = parse_packet(frame);
  EXPECT_EQ(parsed.error, ParseError::truncated_ipv4);
}

TEST(Parser, TruncatedL4Reported) {
  // IPv4 header claims TCP but the frame ends after the IP header.
  Bytes frame = PacketBuilder()
                    .ethernet(mac(2), mac(1))
                    .ipv4(Ipv4Address::from_octets(1, 1, 1, 1),
                          Ipv4Address::from_octets(2, 2, 2, 2), IpProto::tcp)
                    .tcp(1, 2)
                    .build();
  frame.resize(EthernetHeader::size() + 20 + 10);  // cut into the TCP header
  const auto parsed = parse_packet(frame);
  EXPECT_EQ(parsed.error, ParseError::truncated_l4);
}

TEST(Parser, VlanStackLimitEnforced) {
  Bytes frame = PacketBuilder()
                    .ethernet(mac(2), mac(1))
                    .ipv4(Ipv4Address::from_octets(1, 1, 1, 1),
                          Ipv4Address::from_octets(2, 2, 2, 2), IpProto::udp)
                    .udp(1, 2)
                    .build();
  ASSERT_TRUE(push_vlan(frame, 1));
  ASSERT_TRUE(push_vlan(frame, 2));
  ASSERT_TRUE(push_vlan(frame, 3));
  const auto parsed = parse_packet(frame);  // default max is 2
  EXPECT_EQ(parsed.error, ParseError::too_many_vlan_tags);
  const auto relaxed = parse_packet(frame, {.max_vlan_tags = 4});
  EXPECT_TRUE(relaxed.ok());
  EXPECT_EQ(relaxed.vlan_tags.size(), 3u);
}

TEST(Parser, FragmentsSkipL4) {
  Ipv4Header ip;
  ip.src = Ipv4Address::from_octets(1, 1, 1, 1);
  ip.dst = Ipv4Address::from_octets(2, 2, 2, 2);
  ip.protocol = static_cast<std::uint8_t>(IpProto::udp);
  ip.fragment_offset = 100;  // non-first fragment
  ip.total_length = 60;

  Bytes frame(80, 0);
  EthernetHeader eth;
  eth.ether_type = static_cast<std::uint16_t>(EtherType::ipv4);
  eth.serialize_to(frame, 0);
  ip.serialize_to(frame, EthernetHeader::size());

  const auto parsed = parse_packet(frame);
  EXPECT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.outer.udp.has_value());
  EXPECT_EQ(parsed.outer.payload_offset, parsed.outer.l4_offset);
}

TEST(Parser, TunnelParsingCanBeDisabled) {
  Bytes frame = udp_frame();
  ASSERT_TRUE(encapsulate_gre(frame, Ipv4Address::from_octets(9, 0, 0, 1),
                              Ipv4Address::from_octets(9, 0, 0, 2)));
  const auto with = parse_packet(frame);
  EXPECT_TRUE(with.gre.has_value());
  const auto without = parse_packet(frame, {.parse_tunnels = false});
  EXPECT_FALSE(without.gre.has_value());
  EXPECT_TRUE(without.ok());
}

TEST(Parser, Udp4789WithoutVxlanIFlagIsPlainUdp) {
  // payload_size fills bytes 0, 1, 2, ...: the VXLAN I flag (bit 3 of the
  // first byte) is clear, so this is ordinary UDP that happens to use 4789.
  const Bytes frame = PacketBuilder()
                          .ethernet(mac(2), mac(1))
                          .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
                                Ipv4Address::from_octets(10, 0, 0, 2),
                                IpProto::udp)
                          .udp(1111, VxlanHeader::udp_port)
                          .payload_size(VxlanHeader::size() + 16)
                          .build();
  const auto parsed = parse_packet(frame);
  ASSERT_TRUE(parsed.ok()) << to_string(parsed.error);
  ASSERT_TRUE(parsed.outer.udp.has_value());
  EXPECT_EQ(parsed.outer.udp->dst_port, VxlanHeader::udp_port);
  EXPECT_FALSE(parsed.vxlan.has_value());
  EXPECT_FALSE(parsed.inner_eth.has_value());
  EXPECT_FALSE(parsed.inner.has_value());
  EXPECT_EQ(parsed.outer.payload_offset,
            parsed.outer.l4_offset + UdpHeader::size());
  EXPECT_TRUE(validate_packet(parsed, frame).empty());
}

TEST(Validate, CleanPacketHasNoIssues) {
  const Bytes frame = udp_frame();
  EXPECT_TRUE(validate_packet(parse_packet(frame), frame).empty());
}

TEST(Validate, DetectsBadChecksum) {
  Bytes frame = udp_frame();
  frame[EthernetHeader::size() + 10] ^= 0xff;  // corrupt IP checksum
  const auto issues = validate_packet(parse_packet(frame), frame);
  EXPECT_NE(std::find(issues.begin(), issues.end(),
                      ValidationIssue::ipv4_bad_checksum),
            issues.end());
}

TEST(Validate, DetectsTtlZero) {
  const Bytes frame = PacketBuilder()
                          .ethernet(mac(2), mac(1))
                          .ipv4(Ipv4Address::from_octets(1, 1, 1, 1),
                                Ipv4Address::from_octets(2, 2, 2, 2),
                                IpProto::udp, /*ttl=*/0)
                          .udp(1, 2)
                          .build();
  const auto issues = validate_packet(parse_packet(frame), frame);
  EXPECT_NE(std::find(issues.begin(), issues.end(),
                      ValidationIssue::ipv4_ttl_zero),
            issues.end());
}

TEST(Validate, DetectsMartianSource) {
  const Bytes frame = PacketBuilder()
                          .ethernet(mac(2), mac(1))
                          .ipv4(Ipv4Address::from_octets(127, 0, 0, 1),
                                Ipv4Address::from_octets(2, 2, 2, 2),
                                IpProto::udp)
                          .udp(1, 2)
                          .build();
  const auto issues = validate_packet(parse_packet(frame), frame);
  EXPECT_NE(std::find(issues.begin(), issues.end(),
                      ValidationIssue::ipv4_martian_source),
            issues.end());
}

TEST(Validate, DetectsSynFinCombination) {
  const Bytes frame =
      PacketBuilder()
          .ethernet(mac(2), mac(1))
          .ipv4(Ipv4Address::from_octets(1, 1, 1, 1),
                Ipv4Address::from_octets(2, 2, 2, 2), IpProto::tcp)
          .tcp(80, 80, TcpHeader::flag_syn | TcpHeader::flag_fin)
          .build();
  const auto issues = validate_packet(parse_packet(frame), frame);
  EXPECT_NE(std::find(issues.begin(), issues.end(),
                      ValidationIssue::tcp_bad_flags),
            issues.end());
}

TEST(Validate, DetectsTotalLengthOverrun) {
  Bytes frame = udp_frame();
  // Claim more IP payload than the frame holds (and fix the checksum so
  // only the length check fires).
  auto parsed = parse_packet(frame);
  Ipv4Header ip = *parsed.outer.ipv4;
  ip.total_length = static_cast<std::uint16_t>(frame.size());  // too large
  ip.checksum = 0;
  ip.checksum = ip.compute_checksum();
  ip.serialize_to(frame, parsed.outer.l3_offset);
  write_be16(frame, parsed.outer.l3_offset + 10, ip.checksum);
  const auto issues = validate_packet(parse_packet(frame), frame);
  EXPECT_NE(std::find(issues.begin(), issues.end(),
                      ValidationIssue::ipv4_total_length_mismatch),
            issues.end());
}

TEST(Validate, UndersizedFrameFlagged) {
  Bytes frame = udp_frame();
  frame.resize(59);
  frame.resize(59);
  const auto parsed = parse_packet(frame);
  const auto issues = validate_packet(parsed, frame);
  EXPECT_NE(std::find(issues.begin(), issues.end(),
                      ValidationIssue::frame_undersized),
            issues.end());
}

TEST(Validate, PaddedEthernetFrameIsNotALengthMismatch) {
  // A 60-byte frame carrying a small IP packet has padding; that must not
  // trigger the total-length check.
  const Bytes frame = PacketBuilder()
                          .ethernet(mac(2), mac(1))
                          .ipv4(Ipv4Address::from_octets(1, 1, 1, 1),
                                Ipv4Address::from_octets(2, 2, 2, 2),
                                IpProto::udp)
                          .udp(1, 2)
                          .build();
  const auto issues = validate_packet(parse_packet(frame), frame);
  EXPECT_EQ(std::find(issues.begin(), issues.end(),
                      ValidationIssue::ipv4_total_length_mismatch),
            issues.end());
}

TEST(ParseErrorStrings, AllDistinct) {
  EXPECT_EQ(to_string(ParseError::none), "none");
  EXPECT_NE(to_string(ParseError::truncated_ipv4),
            to_string(ParseError::truncated_ipv6));
}

}  // namespace
}  // namespace flexsfp::net
