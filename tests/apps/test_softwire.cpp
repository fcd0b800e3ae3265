#include "apps/softwire.hpp"

#include <gtest/gtest.h>

#include "app_test_util.hpp"
#include "net/builder.hpp"
#include "net/checksum.hpp"
#include "net/parser.hpp"

namespace flexsfp::apps {
namespace {

using testing::ip;
using testing::mac;
using testing::run;
using testing::tcp_packet;
using testing::udp_packet;

// RFC 7597's running example: a = 6, k = 8, m = 2.
constexpr PsidParams kRfcParams{8, 6};
// Test default: 64 subscribers per address, 1008 ports each.
constexpr PsidParams kParams{6, 6};

net::Ipv6Address aftr() { return *net::Ipv6Address::parse("2001:db8:ffff::1"); }
net::Ipv6Address b4(std::uint64_t low) {
  return net::Ipv6Address::from_u64_pair(0x20010db8'00000000ull, low);
}

LwAftrConfig aftr_config() {
  LwAftrConfig config;
  config.aftr_addr = aftr();
  config.icmp_src = ip(192, 0, 2, 1);
  config.binding_capacity = 1024;
  return config;
}

/// Provision subscriber (198.51.100.1, psid) -> b4(1 + psid) for psid in
/// {0, 1}. (Apps are pinned types — no copies/moves — so tests provision in
/// place instead of receiving one from a factory.)
void provision(LwAftr& app) {
  EXPECT_TRUE(app.add_binding(ip(198, 51, 100, 1), 0, kParams, b4(1)));
  EXPECT_TRUE(app.add_binding(ip(198, 51, 100, 1), 1, kParams, b4(2)));
}

// --- PSID arithmetic -------------------------------------------------------

TEST(PsidMath, RfcExampleLayout) {
  // a=6, k=8, m=2: PSID 0x34 owns 4-port runs; port 0x0d34 has a-bits
  // 000011, psid bits 0x4d... decode per the RFC field order.
  EXPECT_TRUE(psid_params_valid(kRfcParams));
  EXPECT_EQ(psid_m_bits(kRfcParams), 2u);
  EXPECT_EQ(port_set_size(kRfcParams), 63u * 4u);
  // psid_of_port inverts port_for_index across the whole set.
  for (std::uint32_t i = 0; i < port_set_size(kRfcParams); ++i) {
    const std::uint16_t port = port_for_index(kRfcParams, 0x34, i);
    EXPECT_EQ(psid_of_port(kRfcParams, port), 0x34);
    EXPECT_FALSE(port_excluded(kRfcParams, port));
    EXPECT_TRUE(port_in_set(kRfcParams, 0x34, port));
  }
}

TEST(PsidMath, SystemPortsExcludedWhenOffsetNonzero) {
  // a=6 excludes ports 0..1023 (top six bits zero).
  EXPECT_TRUE(port_excluded(kParams, 0));
  EXPECT_TRUE(port_excluded(kParams, 1023));
  EXPECT_FALSE(port_excluded(kParams, 1024));
  // a=0: nothing excluded, the whole 16-bit space is partitioned.
  constexpr PsidParams flat{6, 0};
  EXPECT_FALSE(port_excluded(flat, 0));
  EXPECT_EQ(port_set_size(flat), 1024u);
}

TEST(PsidMath, DegenerateLayouts) {
  // k=0: one subscriber owns every non-excluded port.
  constexpr PsidParams no_psid{0, 6};
  EXPECT_EQ(port_set_size(no_psid), 63u * 1024u);
  EXPECT_TRUE(port_in_set(no_psid, 0, 3000));
  // a+k=16: one port per block.
  constexpr PsidParams tight{10, 6};
  EXPECT_TRUE(psid_params_valid(tight));
  EXPECT_EQ(psid_m_bits(tight), 0u);
  EXPECT_EQ(port_set_size(tight), 63u);
  // a+k>16 is invalid.
  EXPECT_FALSE(psid_params_valid(PsidParams{11, 6}));
}

// --- encap / decap ---------------------------------------------------------

TEST(LwAftrApp, EncapsulatesMappedDownstreamTraffic) {
  LwAftr app(aftr_config());
  provision(app);
  // Internet -> subscriber: dst port 1024 is index 0 of PSID 0.
  auto packet = udp_packet(ip(192, 0, 2, 50), ip(198, 51, 100, 1), 9999,
                           port_for_index(kParams, 0, 0));
  EXPECT_EQ(run(app, packet), ppe::Verdict::forward);
  const auto parsed = net::parse_packet(packet.data());
  ASSERT_TRUE(parsed.outer.ipv6.has_value());
  EXPECT_EQ(parsed.outer.ipv6->src, aftr());
  EXPECT_EQ(parsed.outer.ipv6->dst, b4(1));
  EXPECT_EQ(parsed.outer.ipv6->next_header,
            std::uint8_t(net::IpProto::ipv4_encap));
  EXPECT_EQ(app.stat_packets(LwAftr::stat_encapsulated), 1u);
}

TEST(LwAftrApp, EncapsulatesPlainUdpToTheVxlanPort) {
  // A subscriber may own port 4789; a payload without the VXLAN I flag is
  // ordinary UDP, not a malformed tunnel frame.
  LwAftr app(aftr_config());
  const std::uint16_t port = net::VxlanHeader::udp_port;
  ASSERT_TRUE(app.add_binding(ip(198, 51, 100, 1), psid_of_port(kParams, port),
                              kParams, b4(9)));
  auto packet = udp_packet(ip(192, 0, 2, 50), ip(198, 51, 100, 1), 9999, port);
  EXPECT_EQ(run(app, packet), ppe::Verdict::forward);
  const auto parsed = net::parse_packet(packet.data());
  ASSERT_TRUE(parsed.outer.ipv6.has_value());
  EXPECT_EQ(parsed.outer.ipv6->dst, b4(9));
  EXPECT_EQ(app.stat_packets(LwAftr::stat_encapsulated), 1u);
  EXPECT_EQ(app.stat_packets(LwAftr::stat_malformed), 0u);
}

TEST(LwAftrApp, DecapRestoresOriginalFrameAndChecksAntiSpoof) {
  LwAftr app(aftr_config());
  provision(app);
  const std::uint16_t port = port_for_index(kParams, 1, 7);
  // Subscriber -> internet, pre-encapsulated by the correct B4.
  auto packet = udp_packet(ip(198, 51, 100, 1), ip(192, 0, 2, 50), port, 443);
  const net::Bytes inner = packet.data();
  ASSERT_TRUE(net::encapsulate_ipv4_in_ipv6(packet.data(), b4(2), aftr()));

  EXPECT_EQ(run(app, packet), ppe::Verdict::forward);
  EXPECT_EQ(packet.data(), inner);  // byte-exact restore
  EXPECT_EQ(app.stat_packets(LwAftr::stat_decapsulated), 1u);
}

TEST(LwAftrApp, AntiSpoofDropsWrongB4Source) {
  LwAftr app(aftr_config());
  provision(app);
  const std::uint16_t port = port_for_index(kParams, 1, 0);
  auto packet = udp_packet(ip(198, 51, 100, 1), ip(192, 0, 2, 50), port, 443);
  // b4(1) holds PSID 0, not PSID 1: the inner source port lies.
  ASSERT_TRUE(net::encapsulate_ipv4_in_ipv6(packet.data(), b4(1), aftr()));
  EXPECT_EQ(run(app, packet), ppe::Verdict::drop);
  EXPECT_EQ(app.stat_packets(LwAftr::stat_antispoof_dropped), 1u);
}

TEST(LwAftrApp, AntiSpoofDropsUnknownSubscriberSource) {
  LwAftr app(aftr_config());
  provision(app);
  auto packet = udp_packet(ip(203, 0, 113, 9), ip(192, 0, 2, 50), 5000, 443);
  ASSERT_TRUE(net::encapsulate_ipv4_in_ipv6(packet.data(), b4(1), aftr()));
  EXPECT_EQ(run(app, packet), ppe::Verdict::drop);
  EXPECT_EQ(app.stat_packets(LwAftr::stat_antispoof_dropped), 1u);
}

TEST(LwAftrApp, ForeignIpv6PassesThrough) {
  LwAftr app(aftr_config());
  provision(app);
  auto packet = net::PacketBuilder()
                    .ethernet(mac(2), mac(1), net::EtherType::ipv6)
                    .ipv6(b4(9), *net::Ipv6Address::parse("2001:db8::99"),
                          net::IpProto::udp)
                    .udp(1, 2)
                    .payload_size(16)
                    .build_packet();
  EXPECT_EQ(run(app, packet), ppe::Verdict::forward);
  EXPECT_EQ(app.stat_packets(LwAftr::stat_passthrough), 1u);
}

// --- hairpinning -----------------------------------------------------------

TEST(LwAftrApp, HairpinsSubscriberToSubscriber) {
  LwAftr app(aftr_config());
  provision(app);
  const std::uint16_t src_port = port_for_index(kParams, 0, 3);
  const std::uint16_t dst_port = port_for_index(kParams, 1, 5);
  // PSID-0 subscriber talks to PSID-1 subscriber on the same shared IPv4.
  auto packet = udp_packet(ip(198, 51, 100, 1), ip(198, 51, 100, 1), src_port,
                           dst_port);
  ASSERT_TRUE(net::encapsulate_ipv4_in_ipv6(packet.data(), b4(1), aftr()));

  EXPECT_EQ(run(app, packet), ppe::Verdict::forward);
  const auto parsed = net::parse_packet(packet.data());
  ASSERT_TRUE(parsed.outer.ipv6.has_value());  // still a tunnel frame
  EXPECT_EQ(parsed.outer.ipv6->src, aftr());
  EXPECT_EQ(parsed.outer.ipv6->dst, b4(2));  // re-aimed at the peer's B4
  EXPECT_EQ(app.stat_packets(LwAftr::stat_hairpinned), 1u);
  EXPECT_EQ(app.stat_packets(LwAftr::stat_decapsulated), 0u);
}

TEST(LwAftrApp, HairpinDisabledDecapsulatesInstead) {
  LwAftrConfig config = aftr_config();
  config.hairpin = false;
  LwAftr app(config);
  provision(app);
  auto packet =
      udp_packet(ip(198, 51, 100, 1), ip(198, 51, 100, 1),
                 port_for_index(kParams, 0, 3), port_for_index(kParams, 1, 5));
  ASSERT_TRUE(net::encapsulate_ipv4_in_ipv6(packet.data(), b4(1), aftr()));
  EXPECT_EQ(run(app, packet), ppe::Verdict::forward);
  EXPECT_TRUE(net::parse_packet(packet.data()).outer.ipv4.has_value());
  EXPECT_EQ(app.stat_packets(LwAftr::stat_decapsulated), 1u);
}

// --- miss handling ---------------------------------------------------------

TEST(LwAftrApp, UnmappableBecomesIcmpUnreachable) {
  LwAftr app(aftr_config());  // miss_action defaults to icmp_reject
  provision(app);
  // Port 1024 of PSID 2 — no such lease.
  auto packet = udp_packet(ip(192, 0, 2, 50), ip(198, 51, 100, 1), 9999,
                           port_for_index(kParams, 2, 0));
  const auto before = net::parse_packet(packet.data());
  const net::Ipv4Address orig_src = before.outer.ipv4->src;

  EXPECT_EQ(run(app, packet), ppe::Verdict::forward);
  const auto parsed = net::parse_packet(packet.data());
  ASSERT_TRUE(parsed.outer.ipv4.has_value());
  ASSERT_TRUE(parsed.outer.icmp.has_value());
  EXPECT_EQ(parsed.outer.ipv4->src, ip(192, 0, 2, 1));
  EXPECT_EQ(parsed.outer.ipv4->dst, orig_src);  // back to the sender
  EXPECT_EQ(parsed.outer.icmp->type, 3u);  // destination unreachable
  EXPECT_EQ(parsed.outer.icmp->code, 1u);  // host unreachable
  // Both checksums must survive independent verification.
  EXPECT_EQ(parsed.outer.ipv4->compute_checksum(), parsed.outer.ipv4->checksum);
  const std::size_t l3 = parsed.outer.l3_offset;
  EXPECT_EQ(net::internet_checksum(net::BytesView{
                packet.data().data() + l3 + 20, packet.data().size() - l3 - 20}),
            0u);
  EXPECT_EQ(app.stat_packets(LwAftr::stat_unmappable_v4), 1u);
  EXPECT_EQ(app.stat_packets(LwAftr::stat_icmp_rejected), 1u);
}

TEST(LwAftrApp, MissActionDropAndPunt) {
  LwAftrConfig config = aftr_config();
  config.miss_action = SoftwireMissAction::drop;
  LwAftr dropper(config);
  auto packet = udp_packet(ip(192, 0, 2, 50), ip(198, 51, 100, 1), 9999, 2000);
  EXPECT_EQ(run(dropper, packet), ppe::Verdict::drop);
  EXPECT_EQ(dropper.stat_packets(LwAftr::stat_unmappable_v4), 1u);

  config.miss_action = SoftwireMissAction::punt;
  LwAftr punter(config);
  auto packet2 = udp_packet(ip(192, 0, 2, 50), ip(198, 51, 100, 1), 9999, 2000);
  EXPECT_EQ(run(punter, packet2), ppe::Verdict::to_control_plane);
  EXPECT_EQ(punter.stat_packets(LwAftr::stat_punted), 1u);
}

TEST(LwAftrApp, ExcludedSystemPortIsUnmappable) {
  LwAftrConfig config = aftr_config();
  config.miss_action = SoftwireMissAction::drop;
  LwAftr app(config);
  provision(app);
  // Port 80 has its top a=6 bits zero: no subscriber may own it even though
  // psid_of_port() would decode PSID 0.
  auto packet = udp_packet(ip(192, 0, 2, 50), ip(198, 51, 100, 1), 9999, 80);
  EXPECT_EQ(run(app, packet), ppe::Verdict::drop);
  EXPECT_EQ(app.stat_packets(LwAftr::stat_unmappable_v4), 1u);
}

TEST(LwAftrApp, FragmentsRejectedBothDirections) {
  LwAftr app(aftr_config());
  provision(app);
  net::Ipv4Header frag;
  frag.src = ip(192, 0, 2, 50);
  frag.dst = ip(198, 51, 100, 1);
  frag.protocol = std::uint8_t(net::IpProto::udp);
  frag.more_fragments = true;
  auto packet = net::PacketBuilder()
                    .ethernet(mac(2), mac(1))
                    .ipv4_header(frag)
                    .udp(9999, port_for_index(kParams, 0, 0))
                    .payload_size(16)
                    .build_packet();
  EXPECT_EQ(run(app, packet), ppe::Verdict::drop);

  // Inner fragment arriving through the tunnel.
  net::Ipv4Header inner_frag = frag;
  inner_frag.src = ip(198, 51, 100, 1);
  inner_frag.dst = ip(192, 0, 2, 50);
  auto tunneled = net::PacketBuilder()
                      .ethernet(mac(2), mac(1))
                      .ipv4_header(inner_frag)
                      .udp(port_for_index(kParams, 0, 0), 443)
                      .payload_size(16)
                      .build_packet();
  ASSERT_TRUE(net::encapsulate_ipv4_in_ipv6(tunneled.data(), b4(1), aftr()));
  EXPECT_EQ(run(app, tunneled), ppe::Verdict::drop);
  EXPECT_EQ(app.stat_packets(LwAftr::stat_fragments_rejected), 2u);
}

// --- provisioning ----------------------------------------------------------

TEST(LwAftrApp, BindingLifecycle) {
  LwAftr app(aftr_config());
  EXPECT_TRUE(app.add_binding(ip(198, 51, 100, 1), 3, kParams, b4(10)));
  EXPECT_EQ(app.binding_count(), 1u);
  EXPECT_EQ(app.b4_for(ip(198, 51, 100, 1), 3), b4(10));
  EXPECT_EQ(app.params_for(ip(198, 51, 100, 1)), kParams);

  // Re-adding the same lease refreshes the B4 without growing the table.
  EXPECT_TRUE(app.add_binding(ip(198, 51, 100, 1), 3, kParams, b4(11)));
  EXPECT_EQ(app.binding_count(), 1u);
  EXPECT_EQ(app.b4_for(ip(198, 51, 100, 1), 3), b4(11));

  // A second lease on the address must agree on the PSID arithmetic.
  EXPECT_FALSE(app.add_binding(ip(198, 51, 100, 1), 4, PsidParams{8, 4},
                               b4(12)));
  // PSID must fit in k bits.
  EXPECT_FALSE(app.add_binding(ip(198, 51, 100, 2), 64, kParams, b4(13)));
  // Invalid arithmetic rejected outright.
  EXPECT_FALSE(
      app.add_binding(ip(198, 51, 100, 2), 0, PsidParams{12, 8}, b4(14)));

  EXPECT_TRUE(app.remove_binding(ip(198, 51, 100, 1), 3));
  EXPECT_FALSE(app.remove_binding(ip(198, 51, 100, 1), 3));
  EXPECT_EQ(app.binding_count(), 0u);
  EXPECT_EQ(app.b4_for(ip(198, 51, 100, 1), 3), std::nullopt);
  // The last lease gone, the address forgets its arithmetic: a new layout
  // is now admissible.
  EXPECT_TRUE(
      app.add_binding(ip(198, 51, 100, 1), 4, PsidParams{8, 4}, b4(12)));
}

TEST(LwAftrApp, CapacityEnforced) {
  LwAftrConfig config = aftr_config();
  config.binding_capacity = 2;
  LwAftr app(config);
  EXPECT_TRUE(app.add_binding(ip(10, 0, 0, 1), 0, kParams, b4(1)));
  EXPECT_TRUE(app.add_binding(ip(10, 0, 0, 2), 0, kParams, b4(2)));
  EXPECT_FALSE(app.add_binding(ip(10, 0, 0, 3), 0, kParams, b4(3)));
  // Freeing a slot re-opens the door.
  EXPECT_TRUE(app.remove_binding(ip(10, 0, 0, 1), 0));
  EXPECT_TRUE(app.add_binding(ip(10, 0, 0, 3), 0, kParams, b4(3)));
}

TEST(LwAftrApp, GenericTableSurfaceMirrorsTypedApi) {
  LwAftr app(aftr_config());
  const std::uint64_t addr = ip(198, 51, 100, 7).value();
  // psid_map first: value = offset << 8 | psid_len.
  EXPECT_TRUE(app.table_insert("psid_map", addr, (6u << 8) | 6u));
  // binding insert composes the B4 from config.b4_prefix_hi + value.
  const std::uint64_t key = (addr << 16) | 5u;
  EXPECT_TRUE(app.table_insert("binding", key, 42));
  EXPECT_EQ(app.b4_for(ip(198, 51, 100, 7), 5), b4(42));
  EXPECT_EQ(app.table_lookup("binding", key), 42u);
  EXPECT_EQ(app.table_lookup("psid_map", addr).value_or(0) & 0xffffu,
            (6u << 8) | 6u);
  // binding without a psid_map entry is rejected (no arithmetic to run).
  EXPECT_FALSE(app.table_insert("binding",
                                (std::uint64_t{ip(10, 9, 8, 7).value()} << 16),
                                1));
  EXPECT_TRUE(app.table_erase("binding", key));
  EXPECT_EQ(app.table_lookup("binding", key), std::nullopt);
  EXPECT_FALSE(app.table_insert("no_such_table", 1, 2));
}

// --- config & introspection ------------------------------------------------

TEST(LwAftrApp, ConfigRoundTripsThroughSerialization) {
  LwAftrConfig config = aftr_config();
  config.miss_action = SoftwireMissAction::punt;
  config.hairpin = false;
  config.tunnel_hop_limit = 33;
  config.b4_prefix_hi = 0xfd00'1234'5678'9abcull;
  const auto parsed = LwAftrConfig::parse(LwAftr(config).serialize_config());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->aftr_addr, config.aftr_addr);
  EXPECT_EQ(parsed->icmp_src, config.icmp_src);
  EXPECT_EQ(parsed->binding_capacity, config.binding_capacity);
  EXPECT_EQ(parsed->miss_action, config.miss_action);
  EXPECT_EQ(parsed->hairpin, config.hairpin);
  EXPECT_EQ(parsed->tunnel_hop_limit, config.tunnel_hop_limit);
  EXPECT_EQ(parsed->b4_prefix_hi, config.b4_prefix_hi);
  EXPECT_EQ(LwAftrConfig::parse(net::Bytes{1, 2, 3}), std::nullopt);
}

TEST(LwAftrApp, ProfileDeclaresTablesAndCounters) {
  LwAftr app(aftr_config());
  const ppe::StageProfile profile = app.profile();
  ASSERT_EQ(profile.tables.size(), 2u);
  EXPECT_EQ(profile.tables[0].name, "psid_map");
  EXPECT_EQ(profile.tables[1].name, "binding");
  EXPECT_EQ(profile.tables[1].capacity, 1024u);
  EXPECT_EQ(profile.tables[1].value_bits, 128u);
  ASSERT_EQ(profile.counter_banks.size(), 1u);
  EXPECT_EQ(profile.counter_banks[0].name, "lwaftr_stats");

  const auto counters = app.counters();
  ASSERT_EQ(counters.size(), std::size_t{LwAftr::stat_count});
  EXPECT_EQ(counters[0].bank, "lwaftr_stats");
}

// --- LwB4 ------------------------------------------------------------------

LwB4Config b4_config() {
  LwB4Config config;
  config.ipv4 = ip(198, 51, 100, 1);
  config.psid = 1;
  config.params = kParams;
  config.b4_addr = b4(2);
  config.aftr_addr = aftr();
  return config;
}

TEST(LwB4App, EncapsulatesInSetUpstreamTraffic) {
  LwB4 app(b4_config());
  const std::uint16_t port = port_for_index(kParams, 1, 12);
  auto packet = udp_packet(ip(198, 51, 100, 1), ip(192, 0, 2, 50), port, 443);
  EXPECT_EQ(run(app, packet), ppe::Verdict::forward);
  const auto parsed = net::parse_packet(packet.data());
  ASSERT_TRUE(parsed.outer.ipv6.has_value());
  EXPECT_EQ(parsed.outer.ipv6->src, b4(2));
  EXPECT_EQ(parsed.outer.ipv6->dst, aftr());
  EXPECT_EQ(app.stat_packets(LwB4::stat_encapsulated), 1u);
}

TEST(LwB4App, DropsOutOfSetSourcePort) {
  LwB4 app(b4_config());
  // PSID 0's port, not ours — the NAPT44 in front leaked.
  auto packet = udp_packet(ip(198, 51, 100, 1), ip(192, 0, 2, 50),
                           port_for_index(kParams, 0, 0), 443);
  EXPECT_EQ(run(app, packet), ppe::Verdict::drop);
  EXPECT_EQ(app.stat_packets(LwB4::stat_port_out_of_set), 1u);
}

TEST(LwB4App, DecapsulatesAndValidatesDownstreamPort) {
  LwB4 app(b4_config());
  const std::uint16_t port = port_for_index(kParams, 1, 3);
  auto packet = udp_packet(ip(192, 0, 2, 50), ip(198, 51, 100, 1), 443, port);
  const net::Bytes inner = packet.data();
  ASSERT_TRUE(net::encapsulate_ipv4_in_ipv6(packet.data(), aftr(), b4(2)));
  EXPECT_EQ(run(app, packet), ppe::Verdict::forward);
  EXPECT_EQ(packet.data(), inner);
  EXPECT_EQ(app.stat_packets(LwB4::stat_decapsulated), 1u);

  // A tunneled packet for someone else's port set is dropped (RFC 7596 §6).
  auto foreign = udp_packet(ip(192, 0, 2, 50), ip(198, 51, 100, 1), 443,
                            port_for_index(kParams, 0, 3));
  ASSERT_TRUE(net::encapsulate_ipv4_in_ipv6(foreign.data(), aftr(), b4(2)));
  EXPECT_EQ(run(app, foreign), ppe::Verdict::drop);
  EXPECT_EQ(app.stat_packets(LwB4::stat_port_out_of_set), 1u);
}

TEST(LwB4App, ForeignIpv4PassesThrough) {
  LwB4 app(b4_config());
  auto packet = tcp_packet(ip(10, 0, 0, 5), ip(192, 0, 2, 50), 5555, 80);
  EXPECT_EQ(run(app, packet), ppe::Verdict::forward);
  EXPECT_EQ(app.stat_packets(LwB4::stat_passthrough), 1u);
}

TEST(LwB4App, ConfigRoundTripsThroughSerialization) {
  LwB4Config config = b4_config();
  config.tunnel_hop_limit = 9;
  const auto parsed = LwB4Config::parse(LwB4(config).serialize_config());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ipv4, config.ipv4);
  EXPECT_EQ(parsed->psid, config.psid);
  EXPECT_EQ(parsed->params, config.params);
  EXPECT_EQ(parsed->b4_addr, config.b4_addr);
  EXPECT_EQ(parsed->aftr_addr, config.aftr_addr);
  EXPECT_EQ(parsed->tunnel_hop_limit, config.tunnel_hop_limit);
  EXPECT_EQ(LwB4Config::parse(net::Bytes{}), std::nullopt);
}

}  // namespace
}  // namespace flexsfp::apps
