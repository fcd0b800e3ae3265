// Differential suite for the lw4o6 datapath.
//
// Three oracles keep LwAftr/LwB4 honest:
//   * a naive byte-level reference that assembles the expected tunnel frame
//     byte by byte (no shared code with the in-place edit primitives),
//   * the AFTR<->B4 round trip: encap at one end, decap at the other must be
//     a byte-exact identity for every tunnel-eligible shape, and
//   * the parser-built reference of softwire_oracle.hpp, against which the
//     AFTR's byte-peek fast path must agree on every frame of a shape zoo
//     and every runt cut from it.
#include <map>

#include <gtest/gtest.h>

#include "app_test_util.hpp"
#include "apps/softwire.hpp"
#include "net/builder.hpp"
#include "net/parser.hpp"
#include "net/wire_layout.hpp"
#include "softwire_oracle.hpp"

namespace flexsfp::apps {
namespace {

using testing::ip;
using testing::mac;
using testing::run;
using testing::tcp_packet;
using testing::udp_packet;

constexpr PsidParams kParams{6, 6};

net::Ipv6Address aftr() { return *net::Ipv6Address::parse("2001:db8:ffff::1"); }
net::Ipv6Address b4(std::uint64_t low) {
  return net::Ipv6Address::from_u64_pair(0x20010db8'00000000ull, low);
}
net::Ipv4Address shared_v4() { return ip(198, 51, 100, 1); }

LwAftrConfig aftr_config(SoftwireMissAction miss = SoftwireMissAction::drop) {
  LwAftrConfig config;
  config.aftr_addr = aftr();
  config.icmp_src = ip(192, 0, 2, 1);
  config.binding_capacity = 256;
  config.miss_action = miss;
  return config;
}

void provision(LwAftr& app) {
  EXPECT_TRUE(app.add_binding(shared_v4(), 0, kParams, b4(1)));
  EXPECT_TRUE(app.add_binding(shared_v4(), 1, kParams, b4(2)));
}

LwB4Config b4_config(std::uint16_t psid) {
  LwB4Config config;
  config.ipv4 = shared_v4();
  config.psid = psid;
  config.params = kParams;
  config.b4_addr = b4(1 + psid);
  config.aftr_addr = aftr();
  return config;
}

// --- naive reference -------------------------------------------------------

/// Assemble the expected tunnel frame by hand: copy L2 as-is, write a fresh
/// IPv6 header field by field, append the original IP packet. Shares no
/// code with net::encapsulate_ipv4_in_ipv6 (which edits in place).
net::Bytes naive_encap(const net::Bytes& frame, const net::Ipv6Address& src,
                       const net::Ipv6Address& dst) {
  const auto parsed = net::parse_packet(frame);
  const std::size_t l3 = parsed.outer.l3_offset;
  net::Bytes out(frame.begin(), frame.begin() + std::ptrdiff_t(l3));
  out[l3 - 2] = 0x86;  // EtherType -> IPv6
  out[l3 - 1] = 0xdd;
  net::Bytes v6(net::Ipv6Header::size(), 0);
  v6[0] = 0x60;  // version
  v6[4] = std::uint8_t((frame.size() - l3) >> 8);  // payload length
  v6[5] = std::uint8_t((frame.size() - l3) & 0xff);
  v6[6] = 4;   // next-header: IPv4
  v6[7] = 64;  // hop limit
  const auto src_o = src.octets();
  const auto dst_o = dst.octets();
  std::copy(src_o.begin(), src_o.end(), v6.begin() + 8);
  std::copy(dst_o.begin(), dst_o.end(), v6.begin() + 24);
  out.insert(out.end(), v6.begin(), v6.end());
  out.insert(out.end(), frame.begin() + std::ptrdiff_t(l3), frame.end());
  return out;
}

/// Tunnel-eligible downstream shapes: internet -> subscriber (psid 0 unless
/// noted), each must encap at the AFTR and decap back to the identical
/// frame at the B4.
std::vector<std::pair<std::string, net::Packet>> downstream_shapes() {
  const std::uint16_t p0 = port_for_index(kParams, 0, 0);
  std::vector<std::pair<std::string, net::Packet>> shapes;
  shapes.emplace_back(
      "udp", udp_packet(ip(192, 0, 2, 50), shared_v4(), 9999, p0));
  shapes.emplace_back(
      "tcp", tcp_packet(ip(192, 0, 2, 50), shared_v4(), 443, p0));
  shapes.emplace_back("tcp-syn",
                      tcp_packet(ip(192, 0, 2, 50), shared_v4(), 443, p0,
                                 net::TcpHeader::flag_syn));
  shapes.emplace_back("udp-big", udp_packet(ip(192, 0, 2, 50), shared_v4(),
                                            9999, p0, 900));
  shapes.emplace_back("udp-runt-payload",
                      udp_packet(ip(192, 0, 2, 50), shared_v4(), 9999, p0, 0));
  shapes.emplace_back(
      "icmp-echo",
      net::PacketBuilder()
          .ethernet(mac(2), mac(1))
          .ipv4(ip(192, 0, 2, 50), shared_v4(), net::IpProto::icmp)
          .icmp_echo(p0, 7)  // identifier carries the A+P port
          .payload_size(24)
          .build_packet());
  shapes.emplace_back(
      "vlan",
      net::PacketBuilder()
          .ethernet(mac(2), mac(1))
          .vlan(42)
          .ipv4(ip(192, 0, 2, 50), shared_v4(), net::IpProto::udp)
          .udp(9999, p0)
          .payload_size(32)
          .build_packet());
  {
    net::Ipv4Header with_options;
    with_options.ihl = 6;  // 4 option bytes (zero-filled)
    with_options.src = ip(192, 0, 2, 50);
    with_options.dst = shared_v4();
    with_options.protocol = std::uint8_t(net::IpProto::udp);
    shapes.emplace_back("ipv4-options",
                        net::PacketBuilder()
                            .ethernet(mac(2), mac(1))
                            .ipv4_header(with_options)
                            .udp(9999, p0)
                            .payload_size(32)
                            .build_packet());
  }
  shapes.emplace_back("psid1", udp_packet(ip(192, 0, 2, 50), shared_v4(), 9999,
                                          port_for_index(kParams, 1, 17)));
  shapes.emplace_back("dscp", [&] {
    net::Ipv4Header marked;
    marked.dscp = 46;
    marked.ttl = 3;
    marked.src = ip(192, 0, 2, 50);
    marked.dst = shared_v4();
    marked.protocol = std::uint8_t(net::IpProto::udp);
    return net::PacketBuilder()
        .ethernet(mac(2), mac(1))
        .ipv4_header(marked)
        .udp(9999, p0)
        .payload_size(32)
        .build_packet();
  }());
  return shapes;
}

TEST(SoftwireDiff, EncapMatchesNaiveReference) {
  for (auto& [label, original] : downstream_shapes()) {
    LwAftr app(aftr_config());
    provision(app);
    const std::uint16_t psid = label == "psid1" ? 1 : 0;
    const net::Bytes expected =
        naive_encap(original.data(), aftr(), b4(1 + psid));
    net::Packet packet = original;
    EXPECT_EQ(run(app, packet), ppe::Verdict::forward) << label;
    EXPECT_EQ(packet.data(), expected) << label;
  }
}

TEST(SoftwireDiff, AftrEncapThenB4DecapIsIdentity) {
  for (auto& [label, original] : downstream_shapes()) {
    LwAftr aftr_app(aftr_config());
    provision(aftr_app);
    LwB4 b4_app(b4_config(label == "psid1" ? 1 : 0));
    net::Packet packet = original;
    ASSERT_EQ(run(aftr_app, packet), ppe::Verdict::forward) << label;
    ASSERT_EQ(run(b4_app, packet), ppe::Verdict::forward) << label;
    EXPECT_EQ(packet.data(), original.data()) << label;
  }
}

TEST(SoftwireDiff, B4EncapThenAftrDecapIsIdentity) {
  // Upstream mirror: subscriber -> internet through the B4, decapped at the
  // AFTR. Source ports are the subscriber's; reuse the downstream shape zoo
  // with src/dst roles swapped where the shape allows it.
  const std::uint16_t p0 = port_for_index(kParams, 0, 0);
  std::vector<std::pair<std::string, net::Packet>> shapes;
  shapes.emplace_back(
      "udp", udp_packet(shared_v4(), ip(192, 0, 2, 50), p0, 9999));
  shapes.emplace_back("tcp",
                      tcp_packet(shared_v4(), ip(192, 0, 2, 50), p0, 443));
  shapes.emplace_back(
      "icmp-echo", net::PacketBuilder()
                       .ethernet(mac(2), mac(1))
                       .ipv4(shared_v4(), ip(192, 0, 2, 50), net::IpProto::icmp)
                       .icmp_echo(p0, 3)
                       .payload_size(24)
                       .build_packet());
  shapes.emplace_back("udp-big", udp_packet(shared_v4(), ip(192, 0, 2, 50), p0,
                                            9999, 900));
  for (auto& [label, original] : shapes) {
    LwB4 b4_app(b4_config(0));
    LwAftr aftr_app(aftr_config());
    provision(aftr_app);
    net::Packet packet = original;
    ASSERT_EQ(run(b4_app, packet), ppe::Verdict::forward) << label;
    // The B4 tunnels toward the AFTR with its own source — exactly what the
    // AFTR's anti-spoof check admits.
    ASSERT_EQ(run(aftr_app, packet), ppe::Verdict::forward) << label;
    EXPECT_EQ(packet.data(), original.data()) << label;
    EXPECT_EQ(aftr_app.stat_packets(LwAftr::stat_decapsulated), 1u) << label;
  }
}

// --- byte-peek fast path vs the parser-built reference ---------------------

std::string describe(const LwAftrConfig& config) {
  return "miss " + std::to_string(static_cast<int>(config.miss_action)) +
         (config.hairpin ? ", hairpin" : ", no hairpin");
}

TEST(SoftwireFastPath, ShapeZooMatchesParserReference) {
  for (const LwAftrConfig& config : oracle::all_configs()) {
    SCOPED_TRACE(describe(config));
    LwAftr app(config);
    oracle::provision(app);
    EXPECT_EQ(oracle::expect_matches_reference(app, oracle::shape_zoo()), 0u);
  }
}

TEST(SoftwireFastPath, RuntsMatchParserReference) {
  // Every zoo frame cut at every length up to 110 bytes: inside and at the
  // end of the Ethernet, VLAN, IPv6, IPv4 (with and without options) and
  // L4 headers.
  const auto runts = oracle::runts();
  for (const LwAftrConfig& config : oracle::all_configs()) {
    SCOPED_TRACE(describe(config));
    LwAftr app(config);
    oracle::provision(app);
    EXPECT_EQ(oracle::expect_matches_reference(app, runts), 0u);
  }
}

TEST(SoftwireFastPath, ZooCoversBothSidesOfTheSplit) {
  // The zoo must hold fast shapes in both directions and frames that only
  // narrowly miss them, or the comparison above proves little.
  namespace wire = net::wire;
  std::size_t down_fast = 0, up_fast = 0, slow = 0;
  for (const oracle::Shape& shape : oracle::shape_zoo()) {
    const net::Bytes& b = shape.frame;
    if (wire::ipv4_frame_shape(b) != wire::L4Shape::slow_path) {
      ++down_fast;
    } else if (wire::untagged_ether_type(b, net::EtherType::ipv6) &&
               b.size() >= wire::kTunnelL3 && b[wire::kL3] >> 4 == 6 &&
               b[wire::kL3 + wire::kIpv6NextHeader] == 4 &&
               wire::ipv4_shape(b, wire::kTunnelL3) !=
                   wire::L4Shape::slow_path) {
      ++up_fast;  // the destination check is the AFTR's own
    } else {
      ++slow;
    }
  }
  EXPECT_GE(down_fast, 9u);
  EXPECT_GE(up_fast, 13u);
  EXPECT_GE(slow, 20u);
}

}  // namespace
}  // namespace flexsfp::apps
