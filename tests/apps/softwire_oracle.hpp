// LwAftr's contract rebuilt from the parser, for differential tests of its
// byte-peek fast path.
//
// LwAftr reads plain untagged IPv4 TCP/UDP frames, and the same packets
// behind a plain IPv6 tunnel header, at fixed offsets; every other frame
// goes through parse_packet. The shape zoo below covers both sides of that
// split, and reference() knows nothing of the fast path: it is built from
// parse_packet, the app's b4_for/params_for read-back and the self-parsing
// net::encapsulate_ipv4_in_ipv6 wrapper only.
#pragma once

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "app_test_util.hpp"
#include "apps/softwire.hpp"
#include "net/builder.hpp"
#include "net/checksum.hpp"
#include "net/parser.hpp"

namespace flexsfp::apps::oracle {

constexpr PsidParams kParams{6, 6};  // 64 PSIDs per address, ports >= 1024

inline net::Ipv6Address aftr() {
  return *net::Ipv6Address::parse("2001:db8:ffff::1");
}
inline net::Ipv6Address b4(std::uint64_t low) {
  return net::Ipv6Address::from_u64_pair(0x20010db8'00000000ull, low);
}
inline net::Ipv4Address shared_v4() { return testing::ip(198, 51, 100, 1); }
inline net::Ipv4Address peer_v4() { return testing::ip(198, 51, 100, 2); }
inline net::Ipv4Address remote() { return testing::ip(192, 0, 2, 50); }
inline std::uint16_t port_of(std::uint16_t psid, std::uint32_t index = 0) {
  return port_for_index(kParams, psid, index);
}
/// The PSID owning UDP port 4789 on the test layout.
inline std::uint16_t vxlan_psid() {
  return psid_of_port(kParams, net::VxlanHeader::udp_port);
}

inline LwAftrConfig config(SoftwireMissAction miss, bool hairpin) {
  LwAftrConfig config;
  config.aftr_addr = aftr();
  config.icmp_src = testing::ip(192, 0, 2, 1);
  config.binding_capacity = 256;
  config.miss_action = miss;
  config.hairpin = hairpin;
  config.tunnel_hop_limit = 37;  // distinct from the frames' 64
  return config;
}

/// Leases: shared_v4 PSIDs 0, 1 and the owner of port 4789 -> b4(1), b4(2),
/// b4(3); peer_v4 PSID 5 -> b4(4).
inline void provision(LwAftr& app) {
  EXPECT_TRUE(app.add_binding(shared_v4(), 0, kParams, b4(1)));
  EXPECT_TRUE(app.add_binding(shared_v4(), 1, kParams, b4(2)));
  EXPECT_TRUE(app.add_binding(shared_v4(), vxlan_psid(), kParams, b4(3)));
  EXPECT_TRUE(app.add_binding(peer_v4(), 5, kParams, b4(4)));
}

struct Shape {
  std::string label;
  net::Bytes frame;
};

/// IPv4 frame src:sport -> dst:dport of `proto` (tcp or udp) with an
/// optional VLAN tag, 4 bytes of IPv4 options and 4 bytes of TCP options.
struct V4Spec {
  net::Ipv4Address src, dst;
  std::uint16_t sport = 0, dport = 0;
  net::IpProto proto = net::IpProto::udp;
  std::size_t payload = 32;
  bool vlan = false;
  bool ip_options = false;
  bool tcp_options = false;
};

inline net::Bytes v4_frame(const V4Spec& spec) {
  net::PacketBuilder builder;
  builder.ethernet(testing::mac(2), testing::mac(1));
  if (spec.vlan) builder.vlan(42);
  net::Ipv4Header ip;
  ip.ihl = spec.ip_options ? 6 : 5;
  ip.src = spec.src;
  ip.dst = spec.dst;
  ip.protocol = static_cast<std::uint8_t>(spec.proto);
  builder.ipv4_header(ip);
  if (spec.proto == net::IpProto::tcp) {
    builder.tcp(spec.sport, spec.dport);
  } else {
    builder.udp(spec.sport, spec.dport);
  }
  net::Bytes frame = builder.payload_size(spec.payload).build();
  if (spec.tcp_options) {
    // Four NOP option bytes behind the fixed TCP header.
    const std::size_t l3 = spec.vlan ? 18 : 14;
    const std::size_t l4 = l3 + ip.size();
    frame.insert(frame.begin() + static_cast<std::ptrdiff_t>(l4 + 20), 4, 1);
    frame[l4 + 12] = 0x60;  // data offset 6
    net::write_be16(frame, l3 + 2,
                    static_cast<std::uint16_t>(net::read_be16(frame, l3 + 2) + 4));
  }
  return frame;
}

inline net::Bytes icmp_frame(net::Ipv4Address src, net::Ipv4Address dst,
                             std::uint8_t type, std::uint16_t id) {
  net::Bytes frame = net::PacketBuilder()
                         .ethernet(testing::mac(2), testing::mac(1))
                         .ipv4(src, dst, net::IpProto::icmp)
                         .icmp_echo(id, 7)
                         .payload_size(24)
                         .build();
  frame[34] = type;
  return frame;
}

/// `inner` as the B4 `from` tunnels it toward `to`.
inline net::Bytes tunneled(net::Bytes inner, const net::Ipv6Address& from,
                           const net::Ipv6Address& to = aftr()) {
  EXPECT_TRUE(net::encapsulate_ipv4_in_ipv6(inner, from, to));
  return inner;
}

inline void set_more_fragments(net::Bytes& frame, std::size_t l3) {
  frame[l3 + 6] |= 0x20;
}
inline void set_fragment_offset(net::Bytes& frame, std::size_t l3) {
  frame[l3 + 7] = 0x10;
}

/// Whole frames on both sides of the byte-peek split.
inline std::vector<Shape> shape_zoo() {
  const net::Ipv4Address sub = shared_v4();
  const std::uint16_t p0 = port_of(0);
  const std::uint16_t p1 = port_of(1, 17);
  const std::uint16_t vxlan = net::VxlanHeader::udp_port;
  std::vector<Shape> zoo;
  const auto add = [&zoo](std::string label, net::Bytes frame) {
    zoo.push_back({std::move(label), std::move(frame)});
  };

  // --- downstream: internet -> subscriber --------------------------------
  add("down-udp", v4_frame({remote(), sub, 9999, p0}));
  add("down-udp-big", v4_frame({.src = remote(), .dst = sub, .sport = 9999,
                                .dport = p1, .payload = 900}));
  add("down-udp-padded", v4_frame({.src = remote(), .dst = sub,
                                   .sport = 9999, .dport = p0,
                                   .payload = 0}));
  add("down-tcp", v4_frame({remote(), sub, 443, p0, net::IpProto::tcp}));
  add("down-tcp-options", v4_frame({.src = remote(), .dst = sub, .sport = 443,
                                    .dport = p1, .proto = net::IpProto::tcp,
                                    .tcp_options = true}));
  add("down-icmp-echo", icmp_frame(remote(), sub, 8, p0));
  add("down-icmp-reply", icmp_frame(remote(), sub, 0, p1));
  add("down-icmp-unreachable", icmp_frame(remote(), sub, 3, p0));
  add("down-udp-4789", v4_frame({remote(), sub, 9999, vxlan}));
  {
    // A payload with the VXLAN I flag: the parser reads a tunnel.
    net::Bytes frame = v4_frame({remote(), sub, 9999, vxlan});
    frame[42] = 0x08;
    add("down-udp-4789-vxlan", std::move(frame));
  }
  add("down-vlan", v4_frame({.src = remote(), .dst = sub, .sport = 9999,
                             .dport = p0, .vlan = true}));
  add("down-ip-options", v4_frame({.src = remote(), .dst = sub,
                                   .sport = 9999, .dport = p0,
                                   .ip_options = true}));
  {
    net::Bytes frame = v4_frame({remote(), sub, 9999, p0});
    set_more_fragments(frame, 14);
    add("down-first-fragment", std::move(frame));
  }
  {
    net::Bytes frame = v4_frame({remote(), sub, 9999, p0});
    set_fragment_offset(frame, 14);
    add("down-later-fragment", std::move(frame));
  }
  {
    net::Bytes frame = v4_frame({remote(), sub, 9999, p0});
    frame[20] |= 0x40;  // DF is not a fragment
    add("down-dont-fragment", std::move(frame));
  }
  add("down-unknown-address",
      v4_frame({remote(), testing::ip(203, 0, 113, 9), 9999, p0}));
  add("down-unleased-psid", v4_frame({remote(), sub, 9999, port_of(7)}));
  add("down-system-port", v4_frame({remote(), sub, 9999, 53}));
  add("down-peer", v4_frame({remote(), peer_v4(), 9999, port_of(5, 3)}));
  {
    net::Bytes frame = v4_frame({remote(), sub, 9999, p0});
    frame[23] = static_cast<std::uint8_t>(net::IpProto::gre);
    add("down-gre", std::move(frame));
  }
  {
    net::Bytes frame(64, 0);
    net::EthernetHeader eth;
    eth.ether_type = static_cast<std::uint16_t>(net::EtherType::arp);
    eth.serialize_to(frame, 0);
    add("arp", std::move(frame));
  }

  // --- upstream: subscriber -> internet, through the B4 tunnel -----------
  add("up-udp", tunneled(v4_frame({sub, remote(), p0, 443}), b4(1)));
  add("up-udp-big", tunneled(v4_frame({.src = sub, .dst = remote(),
                                       .sport = p1, .dport = 443,
                                       .payload = 900}),
                             b4(2)));
  add("up-tcp", tunneled(v4_frame({sub, remote(), p0, 443, net::IpProto::tcp}),
                         b4(1)));
  add("up-tcp-options",
      tunneled(v4_frame({.src = sub, .dst = remote(), .sport = p0,
                         .dport = 443, .proto = net::IpProto::tcp,
                         .tcp_options = true}),
               b4(1)));
  add("up-icmp-echo", tunneled(icmp_frame(sub, remote(), 8, p0), b4(1)));
  add("up-icmp-unreachable", tunneled(icmp_frame(sub, remote(), 3, p0), b4(1)));
  add("up-udp-4789", tunneled(v4_frame({sub, remote(), vxlan, 9999}), b4(3)));
  add("up-udp-to-4789", tunneled(v4_frame({sub, remote(), p0, vxlan}), b4(1)));
  add("up-vlan", tunneled(v4_frame({.src = sub, .dst = remote(), .sport = p0,
                                    .dport = 443, .vlan = true}),
                          b4(1)));
  add("up-inner-ip-options",
      tunneled(v4_frame({.src = sub, .dst = remote(), .sport = p0,
                         .dport = 443, .ip_options = true}),
               b4(1)));
  {
    net::Bytes inner = v4_frame({sub, remote(), p0, 443});
    set_more_fragments(inner, 14);
    add("up-first-fragment", tunneled(std::move(inner), b4(1)));
  }
  {
    net::Bytes inner = v4_frame({sub, remote(), p0, 443});
    set_fragment_offset(inner, 14);
    add("up-later-fragment", tunneled(std::move(inner), b4(1)));
  }
  add("up-foreign-destination",
      tunneled(v4_frame({sub, remote(), p0, 443}), b4(1), b4(99)));
  {
    net::Bytes frame = tunneled(v4_frame({sub, remote(), p0, 443}), b4(1));
    frame[14 + 6] = 41;  // next-header: IPv6, not IPv4
    add("up-next-header-41", std::move(frame));
  }
  {
    net::Bytes frame = tunneled(v4_frame({sub, remote(), p0, 443}), b4(1));
    frame[14] = 0x45;  // EtherType says IPv6, version nibble says 4
    add("up-bad-version", std::move(frame));
  }
  add("up-wrong-b4", tunneled(v4_frame({sub, remote(), p0, 443}), b4(2)));
  add("up-unknown-subscriber",
      tunneled(v4_frame({testing::ip(203, 0, 113, 9), remote(), p0, 443}),
               b4(1)));
  add("up-unleased-psid",
      tunneled(v4_frame({sub, remote(), port_of(7), 443}), b4(1)));
  add("up-system-port", tunneled(v4_frame({sub, remote(), 80, 443}), b4(1)));
  add("up-hairpin-same-address",
      tunneled(v4_frame({sub, sub, p0, p1}), b4(1)));
  add("up-hairpin-peer",
      tunneled(v4_frame({sub, peer_v4(), p0, port_of(5, 9)}), b4(1)));
  add("up-hairpin-tcp",
      tunneled(v4_frame({sub, peer_v4(), p0, port_of(5, 2),
                         net::IpProto::tcp}),
               b4(1)));
  add("up-hairpin-system-port", tunneled(v4_frame({sub, sub, p0, 80}), b4(1)));
  add("up-hairpin-icmp", tunneled(icmp_frame(sub, sub, 8, p0), b4(1)));
  return zoo;
}

/// The zoo's frames of up to `max_bytes`, cut at every shorter length: every
/// header boundary and every byte inside a header.
inline std::vector<Shape> runts(std::size_t max_bytes = 110) {
  std::vector<Shape> out;
  for (const Shape& shape : shape_zoo()) {
    for (std::size_t len = 0;
         len < std::min(shape.frame.size(), max_bytes); ++len) {
      out.push_back({shape.label + "/cut" + std::to_string(len),
                     net::Bytes(shape.frame.begin(),
                                shape.frame.begin() +
                                    static_cast<std::ptrdiff_t>(len))});
    }
  }
  return out;
}

// --- reference -------------------------------------------------------------

struct Expected {
  ppe::Verdict verdict = ppe::Verdict::forward;
  net::Bytes bytes;
  /// lwaftr_stats increments as (counter, frame bytes at that moment).
  std::vector<std::pair<LwAftr::Stat, std::size_t>> counts;
};

/// The B4 leased (addr, port), read back through the app's typed API.
inline std::optional<net::Ipv6Address> lease_of(const LwAftr& app,
                                                net::Ipv4Address addr,
                                                std::uint16_t port) {
  const auto params = app.params_for(addr);
  if (!params || port_excluded(*params, port)) return std::nullopt;
  return app.b4_for(addr, psid_of_port(*params, port));
}

/// RFC 7596 §5.2's answer to an unmappable packet: ICMPv4 host unreachable
/// from `icmp_src`, quoting the IPv4 header + 8 bytes, behind the frame's
/// own L2 with the MAC addresses swapped, padded to 60 bytes.
inline net::Bytes icmp_unreachable(const net::Bytes& frame, std::size_t l3,
                                   const net::Ipv4Header& ip,
                                   net::Ipv4Address icmp_src) {
  const std::size_t quote = std::min(ip.size() + 8, frame.size() - l3);
  net::Bytes out(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(l3));
  std::swap_ranges(out.begin(), out.begin() + 6, out.begin() + 6);
  net::Ipv4Header reply;
  reply.total_length = static_cast<std::uint16_t>(20 + 8 + quote);
  reply.ttl = 64;
  reply.protocol = static_cast<std::uint8_t>(net::IpProto::icmp);
  reply.src = icmp_src;
  reply.dst = ip.src;
  reply.checksum = reply.compute_checksum();
  out.resize(l3 + 28);
  reply.serialize_to(out, l3);
  out[l3 + 20] = 3;  // destination unreachable
  out[l3 + 21] = 1;  // host unreachable
  out.insert(out.end(), frame.begin() + static_cast<std::ptrdiff_t>(l3),
             frame.begin() + static_cast<std::ptrdiff_t>(l3 + quote));
  net::write_be16(out, l3 + 22,
                  net::internet_checksum(
                      net::BytesView{out.data() + l3 + 20, 8 + quote}));
  if (out.size() < 60) out.resize(60, 0);
  return out;
}

inline Expected reference(const LwAftr& app, const net::Bytes& frame) {
  const LwAftrConfig& config = app.config();
  Expected out{ppe::Verdict::forward, frame, {}};
  const auto done = [&out](ppe::Verdict verdict, LwAftr::Stat stat) {
    out.verdict = verdict;
    out.counts.emplace_back(stat, out.bytes.size());
    return out;
  };
  const auto parsed = net::parse_packet(frame);
  if (!parsed.ok()) return done(ppe::Verdict::drop, LwAftr::stat_malformed);
  const std::size_t l3 = parsed.outer.l3_offset;

  if (parsed.outer.ipv6) {
    const net::Ipv6Header& ip6 = *parsed.outer.ipv6;
    if (ip6.dst != config.aftr_addr ||
        ip6.next_header != static_cast<std::uint8_t>(net::IpProto::ipv4_encap)) {
      return done(ppe::Verdict::forward, LwAftr::stat_passthrough);
    }
    const std::size_t inner_l3 = l3 + net::Ipv6Header::size();
    const auto inner = net::Ipv4Header::parse(frame, inner_l3);
    if (!inner) return done(ppe::Verdict::drop, LwAftr::stat_malformed);
    if (inner->more_fragments || inner->fragment_offset != 0) {
      return done(ppe::Verdict::drop, LwAftr::stat_fragments_rejected);
    }
    // Ports: TCP/UDP when 4 bytes of L4 are there, an ICMP echo's id.
    const std::size_t l4 = inner_l3 + inner->size();
    std::optional<std::uint16_t> sport, dport;
    if ((inner->protocol == static_cast<std::uint8_t>(net::IpProto::tcp) ||
         inner->protocol == static_cast<std::uint8_t>(net::IpProto::udp)) &&
        frame.size() >= l4 + 4) {
      sport = net::read_be16(frame, l4);
      dport = net::read_be16(frame, l4 + 2);
    } else if (inner->protocol ==
                   static_cast<std::uint8_t>(net::IpProto::icmp) &&
               frame.size() >= l4 + 8 && (frame[l4] == 0 || frame[l4] == 8)) {
      sport = dport = net::read_be16(frame, l4 + 4);
    }
    const auto source_b4 =
        sport ? lease_of(app, inner->src, *sport) : std::nullopt;
    if (!source_b4 || *source_b4 != ip6.src) {
      return done(ppe::Verdict::drop, LwAftr::stat_antispoof_dropped);
    }
    if (config.hairpin && dport) {
      if (const auto peer = lease_of(app, inner->dst, *dport)) {
        out.bytes[l3 + 7] = config.tunnel_hop_limit;
        std::copy(config.aftr_addr.octets().begin(),
                  config.aftr_addr.octets().end(), out.bytes.begin() +
                  static_cast<std::ptrdiff_t>(l3 + 8));
        std::copy(peer->octets().begin(), peer->octets().end(),
                  out.bytes.begin() + static_cast<std::ptrdiff_t>(l3 + 24));
        return done(ppe::Verdict::forward, LwAftr::stat_hairpinned);
      }
    }
    net::Bytes decapped(frame.begin(),
                        frame.begin() + static_cast<std::ptrdiff_t>(l3));
    net::write_be16(decapped, l3 - 2,
                    static_cast<std::uint16_t>(net::EtherType::ipv4));
    decapped.insert(decapped.end(),
                    frame.begin() + static_cast<std::ptrdiff_t>(inner_l3),
                    frame.end());
    out.bytes = std::move(decapped);
    return done(ppe::Verdict::forward, LwAftr::stat_decapsulated);
  }

  if (parsed.outer.ipv4) {
    const net::Ipv4Header& ip = *parsed.outer.ipv4;
    if (ip.more_fragments || ip.fragment_offset != 0) {
      return done(ppe::Verdict::drop, LwAftr::stat_fragments_rejected);
    }
    const auto& icmp = parsed.outer.icmp;
    const bool echo = icmp && (icmp->type == 0 || icmp->type == 8);
    if (icmp && !echo) {
      return done(ppe::Verdict::to_control_plane, LwAftr::stat_punted);
    }
    std::optional<std::uint16_t> port;
    if (parsed.outer.tcp) port = parsed.outer.tcp->dst_port;
    if (parsed.outer.udp) port = parsed.outer.udp->dst_port;
    if (echo) port = static_cast<std::uint16_t>(icmp->rest >> 16);
    const auto lease = port ? lease_of(app, ip.dst, *port) : std::nullopt;
    if (lease) {
      if (!net::encapsulate_ipv4_in_ipv6(out.bytes, config.aftr_addr, *lease,
                                         config.tunnel_hop_limit)) {
        return done(ppe::Verdict::drop, LwAftr::stat_malformed);
      }
      return done(ppe::Verdict::forward, LwAftr::stat_encapsulated);
    }
    out.counts.emplace_back(LwAftr::stat_unmappable_v4, out.bytes.size());
    switch (config.miss_action) {
      case SoftwireMissAction::drop:
        out.verdict = ppe::Verdict::drop;
        return out;
      case SoftwireMissAction::punt:
        return done(ppe::Verdict::to_control_plane, LwAftr::stat_punted);
      case SoftwireMissAction::icmp_reject:
        out.bytes = icmp_unreachable(frame, l3, ip, config.icmp_src);
        return done(ppe::Verdict::forward, LwAftr::stat_icmp_rejected);
    }
  }
  return done(ppe::Verdict::forward, LwAftr::stat_passthrough);
}

/// Run every frame through `app` and compare each verdict and output frame,
/// then the lwaftr_stats bank, with the reference. Returns the number of
/// frames that disagreed.
inline std::size_t expect_matches_reference(LwAftr& app,
                                            const std::vector<Shape>& shapes) {
  std::array<std::uint64_t, LwAftr::stat_count> packets{};
  std::array<std::uint64_t, LwAftr::stat_count> bytes{};
  std::size_t mismatches = 0;
  for (const Shape& shape : shapes) {
    const Expected want = reference(app, shape.frame);
    net::Packet packet{shape.frame};
    const ppe::Verdict got = testing::run(app, packet);
    const bool same = got == want.verdict && packet.data() == want.bytes;
    EXPECT_TRUE(same) << shape.label << ": verdict " << ppe::to_string(got)
                      << " vs " << ppe::to_string(want.verdict);
    mismatches += same ? 0 : 1;
    for (const auto& [stat, size] : want.counts) {
      ++packets[stat];
      bytes[stat] += size;
    }
  }
  const auto counters = app.counters();
  EXPECT_EQ(counters.size(), std::size_t{LwAftr::stat_count});
  for (std::size_t i = 0; i < counters.size(); ++i) {
    EXPECT_EQ(counters[i].packets, packets[i]) << "lwaftr_stats " << i;
    EXPECT_EQ(counters[i].bytes, bytes[i]) << "lwaftr_stats " << i;
  }
  return mismatches;
}

/// Every miss action, hairpin on and off.
inline std::vector<LwAftrConfig> all_configs() {
  std::vector<LwAftrConfig> configs;
  for (const auto miss : {SoftwireMissAction::drop, SoftwireMissAction::punt,
                          SoftwireMissAction::icmp_reject}) {
    for (const bool hairpin : {true, false}) {
      configs.push_back(config(miss, hairpin));
    }
  }
  return configs;
}

}  // namespace flexsfp::apps::oracle
