#include "net/builder.hpp"

#include <gtest/gtest.h>

#include "net/checksum.hpp"

namespace flexsfp::net {
namespace {

MacAddress mac(std::uint64_t v) { return MacAddress::from_u64(v); }

TEST(PacketBuilder, UdpFrameHasValidLengthsAndChecksums) {
  const Bytes frame = PacketBuilder()
                          .ethernet(mac(2), mac(1))
                          .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
                                Ipv4Address::from_octets(10, 0, 0, 2),
                                IpProto::udp)
                          .udp(5000, 5001)
                          .payload_size(100)
                          .build();
  const auto parsed = parse_packet(frame);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.outer.ipv4);
  ASSERT_TRUE(parsed.outer.udp);
  EXPECT_EQ(parsed.outer.ipv4->total_length, 20 + 8 + 100);
  EXPECT_EQ(parsed.outer.udp->length, 8 + 100);
  // IPv4 header checksum verifies.
  EXPECT_EQ(parsed.outer.ipv4->compute_checksum(), parsed.outer.ipv4->checksum);
  // No validation issues at all.
  EXPECT_TRUE(validate_packet(parsed, frame).empty());
}

TEST(PacketBuilder, TcpChecksumCoversPseudoHeaderAndPayload) {
  const Bytes frame = PacketBuilder()
                          .ethernet(mac(2), mac(1))
                          .ipv4(Ipv4Address::from_octets(1, 1, 1, 1),
                                Ipv4Address::from_octets(2, 2, 2, 2),
                                IpProto::tcp)
                          .tcp(80, 12345)
                          .payload_size(64)
                          .build();
  const auto parsed = parse_packet(frame);
  ASSERT_TRUE(parsed.outer.tcp);
  // Verify by recomputing over pseudo-header + segment.
  const auto& ip = *parsed.outer.ipv4;
  Bytes pseudo(12);
  write_be32(pseudo, 0, ip.src.value());
  write_be32(pseudo, 4, ip.dst.value());
  pseudo[9] = ip.protocol;
  const std::size_t seg_len = ip.total_length - ip.size();
  write_be16(pseudo, 10, static_cast<std::uint16_t>(seg_len));
  std::uint32_t sum = checksum_partial(pseudo);
  sum = checksum_partial(
      BytesView{frame.data() + parsed.outer.l4_offset, seg_len}, sum);
  EXPECT_EQ(checksum_finish(sum), 0);  // checksum field included -> zero
}

TEST(PacketBuilder, MinimumFrameSizeApplied) {
  const Bytes frame = PacketBuilder()
                          .ethernet(mac(2), mac(1))
                          .ipv4(Ipv4Address::from_octets(1, 0, 0, 1),
                                Ipv4Address::from_octets(1, 0, 0, 2),
                                IpProto::udp)
                          .udp(1, 2)
                          .build();
  EXPECT_EQ(frame.size(), 60u);
}

TEST(PacketBuilder, VlanStackChainsEtherTypes) {
  const Bytes frame = PacketBuilder()
                          .ethernet(mac(2), mac(1))
                          .vlan(100, 3)
                          .ipv4(Ipv4Address::from_octets(1, 0, 0, 1),
                                Ipv4Address::from_octets(1, 0, 0, 2),
                                IpProto::udp)
                          .udp(1, 2)
                          .build();
  const auto parsed = parse_packet(frame);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.vlan_tags.size(), 1u);
  EXPECT_EQ(parsed.vlan_tags[0].vid, 100);
  EXPECT_EQ(parsed.vlan_tags[0].pcp, 3);
  EXPECT_TRUE(parsed.outer.ipv4.has_value());
}

TEST(PacketBuilder, QinqProducesTwoTags) {
  const Bytes frame = PacketBuilder()
                          .ethernet(mac(2), mac(1))
                          .qinq(200, 42)
                          .ipv4(Ipv4Address::from_octets(1, 0, 0, 1),
                                Ipv4Address::from_octets(1, 0, 0, 2),
                                IpProto::udp)
                          .udp(1, 2)
                          .build();
  const auto parsed = parse_packet(frame);
  ASSERT_EQ(parsed.vlan_tags.size(), 2u);
  EXPECT_EQ(parsed.eth.ether_type,
            static_cast<std::uint16_t>(EtherType::qinq));
  EXPECT_EQ(parsed.vlan_tags[0].vid, 200);
  EXPECT_EQ(parsed.vlan_tags[1].vid, 42);
}

TEST(PacketBuilder, RequiresEthernetLayer) {
  EXPECT_THROW((void)PacketBuilder().build(), std::logic_error);
}

TEST(Transform, GreEncapDecapRoundTrip) {
  Bytes frame = PacketBuilder()
                    .ethernet(mac(2), mac(1))
                    .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
                          Ipv4Address::from_octets(10, 0, 0, 2), IpProto::udp)
                    .udp(1000, 2000)
                    .payload_size(32)
                    .build();
  const Bytes original = frame;

  ASSERT_TRUE(encapsulate_gre(frame, Ipv4Address::from_octets(172, 16, 0, 1),
                              Ipv4Address::from_octets(172, 16, 0, 2)));
  const auto outer = parse_packet(frame);
  ASSERT_TRUE(outer.gre.has_value());
  ASSERT_TRUE(outer.inner.has_value());
  EXPECT_EQ(outer.outer.ipv4->protocol,
            static_cast<std::uint8_t>(IpProto::gre));
  EXPECT_EQ(outer.outer.ipv4->compute_checksum(), outer.outer.ipv4->checksum);
  EXPECT_EQ(outer.inner->ipv4->src, Ipv4Address::from_octets(10, 0, 0, 1));

  ASSERT_TRUE(decapsulate(frame));
  EXPECT_EQ(frame, original);
}

TEST(Transform, VxlanEncapDecapRoundTrip) {
  Bytes frame = PacketBuilder()
                    .ethernet(mac(2), mac(1))
                    .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
                          Ipv4Address::from_octets(10, 0, 0, 2), IpProto::tcp)
                    .tcp(80, 8080)
                    .payload_size(200)
                    .build();
  const Bytes original = frame;

  ASSERT_TRUE(encapsulate_vxlan(frame, mac(0xa), mac(0xb),
                                Ipv4Address::from_octets(172, 16, 1, 1),
                                Ipv4Address::from_octets(172, 16, 1, 2),
                                /*vni=*/777));
  const auto outer = parse_packet(frame);
  ASSERT_TRUE(outer.vxlan.has_value());
  EXPECT_EQ(outer.vxlan->vni, 777u);
  ASSERT_TRUE(outer.inner_eth.has_value());
  ASSERT_TRUE(outer.inner.has_value());
  EXPECT_EQ(outer.outer.udp->dst_port, VxlanHeader::udp_port);

  ASSERT_TRUE(decapsulate(frame));
  EXPECT_EQ(frame, original);
}

TEST(Transform, IpipEncapDecapRoundTrip) {
  Bytes frame = PacketBuilder()
                    .ethernet(mac(2), mac(1))
                    .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
                          Ipv4Address::from_octets(10, 0, 0, 2), IpProto::udp)
                    .udp(53, 53)
                    .payload_size(48)
                    .build();
  const Bytes original = frame;
  ASSERT_TRUE(encapsulate_ipip(frame, Ipv4Address::from_octets(9, 9, 9, 1),
                               Ipv4Address::from_octets(9, 9, 9, 2)));
  const auto outer = parse_packet(frame);
  EXPECT_EQ(outer.outer.ipv4->protocol,
            static_cast<std::uint8_t>(IpProto::ipv4_encap));
  ASSERT_TRUE(decapsulate(frame));
  EXPECT_EQ(frame, original);
}

// --- 16-bit length limits of the tunnel edits -------------------------------
// A delivery header's length field is 16 bits. An edit whose result would
// not fit must fail and leave the frame alone, not wrap the field.

/// An untagged IPv4/UDP frame of exactly `size` bytes (the IPv4 and UDP
/// length fields are whatever the builder wrote; no tunnel edit reads them).
Bytes udp_frame_of_size(std::size_t size) {
  Bytes frame = PacketBuilder()
                    .ethernet(mac(2), mac(1))
                    .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
                          Ipv4Address::from_octets(10, 0, 0, 2), IpProto::udp)
                    .udp(1000, 2000)
                    .build();
  frame.resize(size, 0x5a);
  return frame;
}

TEST(Transform, Ipv4InIpv6RefusesAPayloadPastItsLengthField) {
  const Ipv6Address src = Ipv6Address::from_u64_pair(1, 1);
  const Ipv6Address dst = Ipv6Address::from_u64_pair(2, 2);
  // 65,546 bytes would follow the IPv6 header; payload_length holds 65,535.
  Bytes frame = udp_frame_of_size(65560);
  const Bytes original = frame;
  EXPECT_FALSE(encapsulate_ipv4_in_ipv6(frame, src, dst));
  EXPECT_EQ(frame, original);
  EXPECT_FALSE(encapsulate_ipv4_in_ipv6(frame, 14, src, dst));
  EXPECT_EQ(frame, original);
  // The largest frame that fits: 65,535 bytes behind L2.
  frame = udp_frame_of_size(14 + 65535);
  ASSERT_TRUE(encapsulate_ipv4_in_ipv6(frame, src, dst));
  const auto parsed = parse_packet(frame);
  ASSERT_TRUE(parsed.outer.ipv6);
  EXPECT_EQ(parsed.outer.ipv6->payload_length, 65535);
  EXPECT_EQ(frame.size(), 14u + 40u + 65535u);
}

TEST(Transform, GreRefusesADeliveryPacketPastItsLengthField) {
  const Ipv4Address src = Ipv4Address::from_octets(172, 16, 0, 1);
  const Ipv4Address dst = Ipv4Address::from_octets(172, 16, 0, 2);
  // 20 (outer IPv4) + 4 (GRE) + the inner packet must stay <= 65,535.
  Bytes frame = udp_frame_of_size(14 + 65535 - 24 + 1);
  const Bytes original = frame;
  EXPECT_FALSE(encapsulate_gre(frame, src, dst));
  EXPECT_EQ(frame, original);
  frame = udp_frame_of_size(14 + 65535 - 24);
  ASSERT_TRUE(encapsulate_gre(frame, src, dst));
  EXPECT_EQ(parse_packet(frame).outer.ipv4->total_length, 65535);
}

TEST(Transform, IpipRefusesADeliveryPacketPastItsLengthField) {
  const Ipv4Address src = Ipv4Address::from_octets(9, 9, 9, 1);
  const Ipv4Address dst = Ipv4Address::from_octets(9, 9, 9, 2);
  Bytes frame = udp_frame_of_size(14 + 65535 - 20 + 1);
  const Bytes original = frame;
  EXPECT_FALSE(encapsulate_ipip(frame, src, dst));
  EXPECT_EQ(frame, original);
  frame = udp_frame_of_size(14 + 65535 - 20);
  ASSERT_TRUE(encapsulate_ipip(frame, src, dst));
  EXPECT_EQ(parse_packet(frame).outer.ipv4->total_length, 65535);
}

TEST(Transform, VxlanRefusesAnOuterPacketPastItsLengthField) {
  const Ipv4Address src = Ipv4Address::from_octets(172, 16, 1, 1);
  const Ipv4Address dst = Ipv4Address::from_octets(172, 16, 1, 2);
  // Outer IPv4 (20) + UDP (8) + VXLAN (8) + the whole inner frame.
  Bytes frame = udp_frame_of_size(65535 - 36 + 1);
  const Bytes original = frame;
  EXPECT_FALSE(encapsulate_vxlan(frame, mac(0xa), mac(0xb), src, dst, 7));
  EXPECT_EQ(frame, original);
  frame = udp_frame_of_size(65535 - 36);
  ASSERT_TRUE(encapsulate_vxlan(frame, mac(0xa), mac(0xb), src, dst, 7));
  const auto parsed = parse_packet(frame);
  EXPECT_EQ(parsed.outer.ipv4->total_length, 65535);
  EXPECT_EQ(parsed.outer.udp->length, 65535 - 20);
}

TEST(Transform, Ipv4InIpv6OffsetOpsRoundTripBehindAVlanTag) {
  Bytes frame = PacketBuilder()
                    .ethernet(mac(2), mac(1))
                    .vlan(42)
                    .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
                          Ipv4Address::from_octets(10, 0, 0, 2), IpProto::udp)
                    .udp(1000, 2000)
                    .payload_size(16)
                    .build();
  const Bytes original = frame;
  const Ipv6Address src = Ipv6Address::from_u64_pair(1, 1);
  const Ipv6Address dst = Ipv6Address::from_u64_pair(2, 2);
  ASSERT_TRUE(encapsulate_ipv4_in_ipv6(frame, 18, src, dst, 9));
  const auto parsed = parse_packet(frame);
  ASSERT_TRUE(parsed.outer.ipv6);
  EXPECT_EQ(parsed.outer.l3_offset, 18u);
  EXPECT_EQ(parsed.outer.ipv6->hop_limit, 9);
  EXPECT_EQ(parsed.outer.ipv6->payload_length, original.size() - 18);
  ASSERT_TRUE(decapsulate_ipv4_in_ipv6(frame, 18));
  EXPECT_EQ(frame, original);
  // Offsets outside the frame, or a frame too short for the header, fail.
  EXPECT_FALSE(encapsulate_ipv4_in_ipv6(frame, 1, src, dst));
  EXPECT_FALSE(encapsulate_ipv4_in_ipv6(frame, frame.size() + 1, src, dst));
  Bytes runt(18 + 39, 0);
  EXPECT_FALSE(decapsulate_ipv4_in_ipv6(runt, 18));
  EXPECT_EQ(runt.size(), 18u + 39u);
  EXPECT_EQ(frame, original);
}

TEST(Transform, DecapsulateRejectsPlainTraffic) {
  Bytes frame = PacketBuilder()
                    .ethernet(mac(2), mac(1))
                    .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
                          Ipv4Address::from_octets(10, 0, 0, 2), IpProto::udp)
                    .udp(1, 2)
                    .build();
  EXPECT_FALSE(decapsulate(frame));
}

TEST(Transform, PushPopVlanRoundTrip) {
  Bytes frame = PacketBuilder()
                    .ethernet(mac(2), mac(1))
                    .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
                          Ipv4Address::from_octets(10, 0, 0, 2), IpProto::udp)
                    .udp(1, 2)
                    .build();
  const Bytes original = frame;
  ASSERT_TRUE(push_vlan(frame, 512, 6));
  const auto tagged = parse_packet(frame);
  ASSERT_EQ(tagged.vlan_tags.size(), 1u);
  EXPECT_EQ(tagged.vlan_tags[0].vid, 512);
  ASSERT_TRUE(pop_vlan(frame));
  EXPECT_EQ(frame, original);
}

TEST(Transform, PopVlanOnUntaggedFails) {
  Bytes frame = PacketBuilder()
                    .ethernet(mac(2), mac(1))
                    .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
                          Ipv4Address::from_octets(10, 0, 0, 2), IpProto::udp)
                    .udp(1, 2)
                    .build();
  EXPECT_FALSE(pop_vlan(frame));
}

TEST(Transform, RewriteSrcPreservesChecksumValidity) {
  Bytes frame = PacketBuilder()
                    .ethernet(mac(2), mac(1))
                    .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
                          Ipv4Address::from_octets(10, 0, 0, 2), IpProto::tcp)
                    .tcp(80, 8080)
                    .payload_size(40)
                    .build();
  auto parsed = parse_packet(frame);
  ASSERT_TRUE(
      rewrite_ipv4_src(frame, parsed, Ipv4Address::from_octets(5, 6, 7, 8)));
  parsed = parse_packet(frame);
  EXPECT_EQ(parsed.outer.ipv4->src, Ipv4Address::from_octets(5, 6, 7, 8));
  // Header checksum still verifies, and no structural issues appear.
  EXPECT_EQ(parsed.outer.ipv4->compute_checksum(), parsed.outer.ipv4->checksum);
  EXPECT_TRUE(validate_packet(parsed, frame).empty());
}

TEST(Transform, RewriteDstUpdatesUdpChecksum) {
  Bytes frame = PacketBuilder()
                    .ethernet(mac(2), mac(1))
                    .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
                          Ipv4Address::from_octets(10, 0, 0, 2), IpProto::udp)
                    .udp(53, 53)
                    .payload_size(64)
                    .build();
  auto parsed = parse_packet(frame);
  const std::uint16_t before = parsed.outer.udp->checksum;
  ASSERT_TRUE(
      rewrite_ipv4_dst(frame, parsed, Ipv4Address::from_octets(8, 8, 8, 8)));
  parsed = parse_packet(frame);
  EXPECT_EQ(parsed.outer.ipv4->dst, Ipv4Address::from_octets(8, 8, 8, 8));
  EXPECT_NE(parsed.outer.udp->checksum, before);
}

TEST(Transform, DecrementTtlKeepsChecksumValid) {
  Bytes frame = PacketBuilder()
                    .ethernet(mac(2), mac(1))
                    .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
                          Ipv4Address::from_octets(10, 0, 0, 2), IpProto::udp,
                          /*ttl=*/64)
                    .udp(1, 2)
                    .build();
  auto parsed = parse_packet(frame);
  ASSERT_TRUE(decrement_ttl(frame, parsed));
  parsed = parse_packet(frame);
  EXPECT_EQ(parsed.outer.ipv4->ttl, 63);
  EXPECT_EQ(parsed.outer.ipv4->compute_checksum(), parsed.outer.ipv4->checksum);
}

}  // namespace
}  // namespace flexsfp::net
