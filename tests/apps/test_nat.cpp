#include "apps/nat.hpp"

#include <array>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "app_test_util.hpp"
#include "sim/random.hpp"

namespace flexsfp::apps {
namespace {

using testing::ip;
using testing::run;
using testing::udp_packet;

TEST(StaticNat, TranslatesMappedSourceAddress) {
  StaticNat nat;
  ASSERT_TRUE(nat.add_mapping(ip(10, 0, 0, 5), ip(203, 0, 113, 5)));

  auto packet = udp_packet(ip(10, 0, 0, 5), ip(8, 8, 8, 8), 1234, 53);
  EXPECT_EQ(run(nat, packet), ppe::Verdict::forward);

  const auto parsed = net::parse_packet(packet);
  EXPECT_EQ(parsed.outer.ipv4->src, ip(203, 0, 113, 5));
  EXPECT_EQ(parsed.outer.ipv4->dst, ip(8, 8, 8, 8));
  // Checksums remain valid after the rewrite (line-rate O(1) patching).
  EXPECT_TRUE(net::validate_packet(parsed, packet.data()).empty());
}

TEST(StaticNat, MissForwardsUntranslatedByDefault) {
  StaticNat nat;
  auto packet = udp_packet(ip(10, 0, 0, 99), ip(8, 8, 8, 8), 1, 2);
  EXPECT_EQ(run(nat, packet), ppe::Verdict::forward);
  EXPECT_EQ(net::parse_packet(packet).outer.ipv4->src, ip(10, 0, 0, 99));
}

TEST(StaticNat, MissActionDrop) {
  NatConfig config;
  config.miss_action = NatMissAction::drop;
  StaticNat nat(config);
  auto packet = udp_packet(ip(10, 0, 0, 99), ip(8, 8, 8, 8), 1, 2);
  EXPECT_EQ(run(nat, packet), ppe::Verdict::drop);
}

TEST(StaticNat, MissActionPunt) {
  NatConfig config;
  config.miss_action = NatMissAction::punt;
  StaticNat nat(config);
  auto packet = udp_packet(ip(10, 0, 0, 99), ip(8, 8, 8, 8), 1, 2);
  EXPECT_EQ(run(nat, packet), ppe::Verdict::to_control_plane);
}

TEST(StaticNat, DestinationModeRewritesReturnPath) {
  NatConfig config;
  config.direction = NatDirection::destination;
  StaticNat nat(config);
  ASSERT_TRUE(nat.add_mapping(ip(203, 0, 113, 5), ip(10, 0, 0, 5)));
  auto packet = udp_packet(ip(8, 8, 8, 8), ip(203, 0, 113, 5), 53, 1234);
  EXPECT_EQ(run(nat, packet), ppe::Verdict::forward);
  const auto parsed = net::parse_packet(packet);
  EXPECT_EQ(parsed.outer.ipv4->dst, ip(10, 0, 0, 5));
  EXPECT_TRUE(net::validate_packet(parsed, packet.data()).empty());
}

TEST(StaticNat, NonIpv4PassesThrough) {
  StaticNat nat;
  net::Bytes frame(64, 0);
  net::EthernetHeader eth;
  eth.ether_type = static_cast<std::uint16_t>(net::EtherType::arp);
  eth.serialize_to(frame, 0);
  net::Packet packet{frame};
  EXPECT_EQ(run(nat, packet), ppe::Verdict::forward);
  EXPECT_EQ(packet.data(), frame);
}

TEST(StaticNat, TcpChecksumPatchedToo) {
  StaticNat nat;
  ASSERT_TRUE(nat.add_mapping(ip(10, 0, 0, 1), ip(1, 2, 3, 4)));
  auto packet =
      testing::tcp_packet(ip(10, 0, 0, 1), ip(5, 6, 7, 8), 5555, 80);
  EXPECT_EQ(run(nat, packet), ppe::Verdict::forward);
  const auto parsed = net::parse_packet(packet);
  EXPECT_TRUE(net::validate_packet(parsed, packet.data()).empty());
}

TEST(StaticNat, PaperTableGeometryHolds32kFlows) {
  StaticNat nat;  // default 32,768 capacity
  sim::Rng rng(4);
  std::size_t added = 0;
  for (std::uint32_t i = 0; i < 30000; ++i) {
    if (nat.add_mapping(net::Ipv4Address{0x0a000000u + i},
                        net::Ipv4Address{0xcb007100u + i})) {
      ++added;
    }
  }
  EXPECT_GT(double(added) / 30000.0, 0.999);  // cuckoo relocation keeps it full
  EXPECT_EQ(nat.table().capacity(), 32768u);
}

TEST(StaticNat, CountersTrackOutcomes) {
  StaticNat nat;
  nat.add_mapping(ip(10, 0, 0, 1), ip(1, 1, 1, 1));
  auto hit = udp_packet(ip(10, 0, 0, 1), ip(9, 9, 9, 9), 1, 2);
  auto miss = udp_packet(ip(10, 0, 0, 2), ip(9, 9, 9, 9), 1, 2);
  (void)run(nat, hit);
  (void)run(nat, miss);
  const auto counters = nat.counters();
  ASSERT_EQ(counters.size(), 3u);
  EXPECT_EQ(counters[0].packets, 1u);  // translated
  EXPECT_EQ(counters[1].packets, 1u);  // missed
}

TEST(StaticNat, ControlPlaneTableOps) {
  StaticNat nat;
  EXPECT_EQ(nat.table_names(), std::vector<std::string>{"nat"});
  EXPECT_TRUE(nat.table_insert("nat", ip(10, 0, 0, 7).value(),
                               ip(7, 7, 7, 7).value()));
  EXPECT_EQ(nat.table_lookup("nat", ip(10, 0, 0, 7).value()),
            ip(7, 7, 7, 7).value());
  EXPECT_TRUE(nat.table_erase("nat", ip(10, 0, 0, 7).value()));
  EXPECT_FALSE(nat.table_lookup("nat", ip(10, 0, 0, 7).value()).has_value());
  EXPECT_FALSE(nat.table_insert("bogus", 1, 2));
  EXPECT_FALSE(nat.table_lookup("bogus", 1).has_value());
}

TEST(StaticNat, RemoveMappingStopsTranslation) {
  StaticNat nat;
  nat.add_mapping(ip(10, 0, 0, 1), ip(1, 1, 1, 1));
  ASSERT_TRUE(nat.remove_mapping(ip(10, 0, 0, 1)));
  auto packet = udp_packet(ip(10, 0, 0, 1), ip(9, 9, 9, 9), 1, 2);
  (void)run(nat, packet);
  EXPECT_EQ(net::parse_packet(packet).outer.ipv4->src, ip(10, 0, 0, 1));
}

TEST(StaticNat, TranslatesPlainUdpToTheVxlanPort) {
  // UDP/4789 whose payload lacks the VXLAN I flag is ordinary UDP: it must
  // be translated, not passed through as non-IPv4 with its private source.
  StaticNat nat;
  ASSERT_TRUE(nat.add_mapping(ip(10, 0, 0, 5), ip(203, 0, 113, 5)));
  auto packet = udp_packet(ip(10, 0, 0, 5), ip(8, 8, 8, 8), 1234,
                           net::VxlanHeader::udp_port);
  EXPECT_EQ(run(nat, packet), ppe::Verdict::forward);
  const auto parsed = net::parse_packet(packet);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.outer.ipv4->src, ip(203, 0, 113, 5));
  EXPECT_TRUE(net::validate_packet(parsed, packet.data()).empty());
  EXPECT_EQ(nat.counters()[0].packets, 1u);
  EXPECT_EQ(nat.counters()[2].packets, 0u);
}

// --- byte-peek fast path vs a parser-built reference ------------------------
// process() reads plain untagged IPv4 TCP/UDP at fixed offsets and sends
// everything else through the full parser. The shape zoo covers both sides
// of that split; the reference below knows nothing of the fast path.

struct Shape {
  const char* label;
  net::Packet packet;
};

std::vector<Shape> fast_path_shapes() {
  std::vector<Shape> shapes;
  // Fast-path candidates: plain untagged IPv4.
  shapes.push_back(
      {"tcp", testing::tcp_packet(ip(10, 0, 0, 1), ip(8, 8, 8, 8), 1111, 80)});
  shapes.push_back(
      {"udp", udp_packet(ip(10, 0, 0, 2), ip(8, 8, 4, 4), 2222, 53)});
  shapes.push_back(
      {"miss", udp_packet(ip(10, 9, 9, 9), ip(1, 1, 1, 1), 7, 7)});
  shapes.push_back({"identity-map",
                    udp_packet(ip(10, 0, 0, 3), ip(9, 9, 9, 9), 3333, 53)});
  {  // a zero UDP checksum means "no checksum" and must stay zero
    auto zero = udp_packet(ip(10, 0, 0, 2), ip(8, 8, 4, 4), 2223, 53);
    net::write_be16(zero.data(), net::EthernetHeader::size() +
                                     net::Ipv4Header::min_size() + 6,
                    0);
    shapes.push_back({"udp-no-checksum", std::move(zero)});
  }
  // Slow-path shapes the byte peek must reject:
  shapes.push_back({"vlan", net::PacketBuilder()  // tag shifts the IP header
                                .ethernet(testing::mac(2), testing::mac(1))
                                .vlan(42)
                                .ipv4(ip(10, 0, 0, 1), ip(8, 8, 8, 8),
                                      net::IpProto::udp)
                                .udp(4444, 53)
                                .payload_size(16)
                                .build_packet()});
  shapes.push_back({"vxlan-port", udp_packet(ip(10, 0, 0, 1), ip(8, 8, 8, 8),
                                             5555, net::VxlanHeader::udp_port)});
  {  // IPv4 fragment: L4 fields are payload, not a UDP header
    auto frag = udp_packet(ip(10, 0, 0, 1), ip(8, 8, 8, 8), 6666, 53);
    frag.data()[20] |= 0x20;  // more-fragments flag
    shapes.push_back({"fragment", std::move(frag)});
  }
  {  // non-IPv4 ethertype
    net::Bytes frame(64, 0);
    net::EthernetHeader eth;
    eth.ether_type = static_cast<std::uint16_t>(net::EtherType::arp);
    eth.serialize_to(frame, 0);
    shapes.push_back({"arp", net::Packet(frame)});
  }
  {  // IPv4 header with options (ihl = 6)
    auto opts = udp_packet(ip(10, 0, 0, 1), ip(8, 8, 8, 8), 8888, 53);
    opts.data()[14] = 0x46;
    shapes.push_back({"ipv4-options", std::move(opts)});
  }
  {  // truncated mid-IPv4-header
    auto runt = udp_packet(ip(10, 0, 0, 1), ip(8, 8, 8, 8), 9999, 53);
    runt.data().resize(20);
    shapes.push_back({"runt", std::move(runt)});
  }
  return shapes;
}

/// Mappings for the zoo's sources (source mode) and destinations
/// (destination mode), each set with one identity entry.
void install_shape_mappings(StaticNat& nat) {
  ASSERT_TRUE(nat.add_mapping(ip(10, 0, 0, 1), ip(203, 0, 113, 1)));
  ASSERT_TRUE(nat.add_mapping(ip(10, 0, 0, 2), ip(203, 0, 113, 2)));
  ASSERT_TRUE(nat.add_mapping(ip(10, 0, 0, 3), ip(10, 0, 0, 3)));
  ASSERT_TRUE(nat.add_mapping(ip(8, 8, 8, 8), ip(10, 1, 0, 8)));
  ASSERT_TRUE(nat.add_mapping(ip(8, 8, 4, 4), ip(10, 1, 0, 4)));
  ASSERT_TRUE(nat.add_mapping(ip(9, 9, 9, 9), ip(9, 9, 9, 9)));
}

struct Expected {
  ppe::Verdict verdict = ppe::Verdict::forward;
  net::Bytes bytes;
  std::size_t counter = 2;  // nat_stats index: translated, missed, non-ipv4
};

/// StaticNat's contract built from the parser, the table read-back and the
/// generic rewrite primitives only.
Expected reference(const StaticNat& nat, const net::Packet& packet) {
  Expected out;
  out.bytes = packet.data();
  const auto parsed = net::parse_packet(packet.data());
  if (!parsed.ok() || !parsed.outer.ipv4) return out;
  const bool source = nat.config().direction == NatDirection::source;
  const auto translated = nat.translation_for(
      source ? parsed.outer.ipv4->src : parsed.outer.ipv4->dst);
  if (!translated) {
    out.counter = 1;
    switch (nat.config().miss_action) {
      case NatMissAction::forward: out.verdict = ppe::Verdict::forward; break;
      case NatMissAction::drop: out.verdict = ppe::Verdict::drop; break;
      case NatMissAction::punt:
        out.verdict = ppe::Verdict::to_control_plane;
        break;
    }
    return out;
  }
  EXPECT_TRUE(source ? net::rewrite_ipv4_src(out.bytes, parsed, *translated)
                     : net::rewrite_ipv4_dst(out.bytes, parsed, *translated));
  out.counter = 0;
  return out;
}

void expect_fast_path_matches_reference(NatMissAction miss,
                                        NatDirection direction) {
  NatConfig config;
  config.miss_action = miss;
  config.direction = direction;
  StaticNat nat(config);
  install_shape_mappings(nat);
  std::array<std::uint64_t, 3> packets{};
  std::array<std::uint64_t, 3> bytes{};
  for (const Shape& shape : fast_path_shapes()) {
    const Expected want = reference(nat, shape.packet);
    net::Packet packet = shape.packet;
    EXPECT_EQ(run(nat, packet), want.verdict) << shape.label;
    EXPECT_EQ(packet.data(), want.bytes) << shape.label;
    ++packets[want.counter];
    bytes[want.counter] += packet.size();
    if (want.counter == 0) {
      // Translation adds no validation issue: clean frames stay clean.
      const auto before = net::parse_packet(shape.packet);
      const auto after = net::parse_packet(packet);
      EXPECT_EQ(net::validate_packet(after, packet.data()),
                net::validate_packet(before, shape.packet.data()))
          << shape.label;
    }
  }
  const auto counters = nat.counters();
  ASSERT_EQ(counters.size(), 3u);
  for (std::size_t i = 0; i < counters.size(); ++i) {
    EXPECT_EQ(counters[i].packets, packets[i]) << "counter " << i;
    EXPECT_EQ(counters[i].bytes, bytes[i]) << "counter " << i;
  }
}

// The suite name predates the fast path moving from a batch entry point into
// process(); "scalar" is now the parser-built reference above.

TEST(StaticNatBatch, MatchesScalarAcrossShapesForwardMiss) {
  expect_fast_path_matches_reference(NatMissAction::forward,
                                     NatDirection::source);
}

TEST(StaticNatBatch, MatchesScalarAcrossShapesDropMiss) {
  expect_fast_path_matches_reference(NatMissAction::drop,
                                     NatDirection::source);
}

TEST(StaticNatBatch, MatchesScalarAcrossShapesPuntMiss) {
  expect_fast_path_matches_reference(NatMissAction::punt,
                                     NatDirection::source);
}

TEST(StaticNatBatch, DestinationModeMatchesScalar) {
  for (const auto miss : {NatMissAction::forward, NatMissAction::drop,
                          NatMissAction::punt}) {
    SCOPED_TRACE(static_cast<int>(miss));
    expect_fast_path_matches_reference(miss, NatDirection::destination);
  }
}

TEST(NatConfig, SerializeParseRoundTrip) {
  NatConfig config;
  config.direction = NatDirection::destination;
  config.miss_action = NatMissAction::punt;
  config.table_capacity = 4096;
  const auto parsed = NatConfig::parse(config.serialize());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->direction, NatDirection::destination);
  EXPECT_EQ(parsed->miss_action, NatMissAction::punt);
  EXPECT_EQ(parsed->table_capacity, 4096u);
}

TEST(NatConfig, ParseRejectsGarbage) {
  EXPECT_FALSE(NatConfig::parse(net::Bytes{1}).has_value());
  EXPECT_FALSE(NatConfig::parse(net::Bytes{9, 0, 0, 0, 0, 1}).has_value());
  // Zero capacity rejected.
  EXPECT_FALSE(NatConfig::parse(net::Bytes{0, 0, 0, 0, 0, 0}).has_value());
}

TEST(StaticNat, TranslationForQueriesTable) {
  StaticNat nat;
  nat.add_mapping(ip(10, 1, 1, 1), ip(2, 2, 2, 2));
  EXPECT_EQ(nat.translation_for(ip(10, 1, 1, 1)), ip(2, 2, 2, 2));
  EXPECT_FALSE(nat.translation_for(ip(10, 1, 1, 2)).has_value());
}

}  // namespace
}  // namespace flexsfp::apps
