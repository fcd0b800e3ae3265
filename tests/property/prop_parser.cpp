// Malformed-frame properties of the header-stack parser: one deliberately
// truncated or corrupted frame per ParseError value, asserting the parser
// never crashes and reports exactly the promised error code — the reject
// path a hardware parse graph must take deterministically. Plus exhaustive
// truncation and single-byte-corruption sweeps over a known-good frame.
#include <gtest/gtest.h>

#include "frame_mutations.hpp"
#include "net/builder.hpp"
#include "net/parser.hpp"

namespace flexsfp::net {
namespace {

Bytes ipv4_tcp_frame() {
  PacketBuilder builder;
  builder.ethernet(MacAddress::from_u64(0x20), MacAddress::from_u64(0x10));
  builder.ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
               Ipv4Address::from_octets(192, 168, 0, 1), IpProto::tcp);
  builder.tcp(4000, 443);
  builder.payload_size(32);
  return builder.build();
}

TEST(ParserMalformed, CleanFrameReportsNone) {
  const auto parsed = parse_packet(ipv4_tcp_frame());
  EXPECT_EQ(parsed.error, ParseError::none);
  EXPECT_TRUE(parsed.ok());
}

TEST(ParserMalformed, TruncatedEthernet) {
  Bytes frame = ipv4_tcp_frame();
  frame.resize(EthernetHeader::size() - 1);
  const auto parsed = parse_packet(frame);
  EXPECT_EQ(parsed.error, ParseError::truncated_ethernet);
}

TEST(ParserMalformed, TruncatedVlan) {
  PacketBuilder builder;
  builder.ethernet(MacAddress::from_u64(0x20), MacAddress::from_u64(0x10));
  builder.vlan(100, 3);
  builder.ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
               Ipv4Address::from_octets(192, 168, 0, 1), IpProto::udp);
  builder.udp(4000, 53);
  Bytes frame = builder.build();
  frame.resize(EthernetHeader::size() + VlanTag::size() - 2);
  const auto parsed = parse_packet(frame);
  EXPECT_EQ(parsed.error, ParseError::truncated_vlan);
}

TEST(ParserMalformed, TooManyVlanTags) {
  // Three stacked tags by hand; the default ParserOptions accept two.
  Bytes frame(EthernetHeader::size() + 3 * VlanTag::size() + 64, 0);
  EthernetHeader eth;
  eth.dst = MacAddress::from_u64(0x20);
  eth.src = MacAddress::from_u64(0x10);
  eth.ether_type = static_cast<std::uint16_t>(EtherType::vlan);
  eth.serialize_to(frame, 0);
  std::size_t offset = EthernetHeader::size();
  for (int i = 0; i < 3; ++i) {
    VlanTag tag;
    tag.vid = static_cast<std::uint16_t>(100 + i);
    tag.ether_type = i < 2 ? static_cast<std::uint16_t>(EtherType::vlan)
                           : static_cast<std::uint16_t>(EtherType::ipv4);
    tag.serialize_to(frame, offset);
    offset += VlanTag::size();
  }
  const auto parsed = parse_packet(frame);
  EXPECT_EQ(parsed.error, ParseError::too_many_vlan_tags);
  EXPECT_EQ(parsed.vlan_tags.size(), 2u);  // what parsed before the reject
}

TEST(ParserMalformed, BadIpVersion) {
  // EtherType says IPv4 but the version nibble says 6: the encapsulation
  // lies about its payload, which must not be mistaken for truncation.
  Bytes frame = ipv4_tcp_frame();
  frame[EthernetHeader::size()] =
      static_cast<std::uint8_t>(0x60 | (frame[EthernetHeader::size()] & 0x0f));
  const auto parsed = parse_packet(frame);
  EXPECT_EQ(parsed.error, ParseError::bad_ip_version);
  EXPECT_FALSE(parsed.outer.has_ip());
}

TEST(ParserMalformed, TruncatedIpv4) {
  Bytes frame = ipv4_tcp_frame();
  frame.resize(EthernetHeader::size() + Ipv4Header::min_size() - 4);
  const auto parsed = parse_packet(frame);
  EXPECT_EQ(parsed.error, ParseError::truncated_ipv4);
}

TEST(ParserMalformed, TruncatedIpv6) {
  PacketBuilder builder;
  builder.ethernet(MacAddress::from_u64(0x20), MacAddress::from_u64(0x10));
  builder.ipv6(Ipv6Address{}, Ipv6Address{}, IpProto::udp);
  builder.udp(4000, 53);
  Bytes frame = builder.build();
  frame.resize(EthernetHeader::size() + Ipv6Header::size() - 8);
  const auto parsed = parse_packet(frame);
  EXPECT_EQ(parsed.error, ParseError::truncated_ipv6);
}

TEST(ParserMalformed, TruncatedL4) {
  Bytes frame = ipv4_tcp_frame();
  const auto good = parse_packet(frame);
  ASSERT_TRUE(good.ok());
  frame.resize(good.outer.l4_offset + TcpHeader::min_size() - 6);
  const auto parsed = parse_packet(frame);
  EXPECT_EQ(parsed.error, ParseError::truncated_l4);
  EXPECT_TRUE(parsed.outer.ipv4.has_value());  // IP survived the reject
}

TEST(ParserMalformed, BadGre) {
  PacketBuilder builder;
  builder.ethernet(MacAddress::from_u64(0x20), MacAddress::from_u64(0x10));
  builder.ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
               Ipv4Address::from_octets(192, 168, 0, 1), IpProto::gre);
  Bytes frame = builder.build();
  const auto good = parse_packet(frame);
  frame.resize(good.outer.l4_offset + 2);  // GRE needs 4 bytes
  const auto parsed = parse_packet(frame);
  EXPECT_EQ(parsed.error, ParseError::bad_gre);
}

TEST(ParserMalformed, BadVxlan) {
  Bytes frame = ipv4_tcp_frame();
  ASSERT_TRUE(encapsulate_vxlan(frame, MacAddress::from_u64(0x40),
                                MacAddress::from_u64(0x30),
                                Ipv4Address::from_octets(10, 9, 9, 1),
                                Ipv4Address::from_octets(10, 9, 9, 2), 7));
  const auto good = parse_packet(frame);
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(good.vxlan.has_value());
  frame.resize(good.outer.payload_offset + VxlanHeader::size() - 5);
  const auto parsed = parse_packet(frame);
  EXPECT_EQ(parsed.error, ParseError::bad_vxlan);
}

// Property: truncating a good frame at *every* possible length never
// crashes, and the result is either a clean parse (padding-only cut) or a
// truncation-family error — never a stale success with missing headers.
TEST(ParserMalformed, EveryTruncationIsHandled) {
  for (const Bytes& frame : mutations::every_truncation(ipv4_tcp_frame())) {
    const auto parsed = parse_packet(frame);
    if (parsed.ok()) {
      // Only the payload may be missing; every claimed header must fit.
      EXPECT_GE(frame.size(), parsed.outer.payload_offset)
          << "len " << frame.size();
    }
  }
}

// Property: flipping any single byte never crashes the parser; when the
// parse still succeeds the header offsets stay inside the frame.
TEST(ParserMalformed, SingleByteCorruptionNeverCrashes) {
  const auto corrupted = mutations::every_byte_inverted(ipv4_tcp_frame());
  for (std::size_t i = 0; i < corrupted.size(); ++i) {
    const Bytes& frame = corrupted[i];
    const auto parsed = parse_packet(frame);
    if (parsed.ok() && parsed.outer.has_ip()) {
      EXPECT_LE(parsed.outer.payload_offset, frame.size()) << "byte " << i;
    }
  }
}

}  // namespace
}  // namespace flexsfp::net
