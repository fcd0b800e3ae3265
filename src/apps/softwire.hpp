// lw4o6 softwire (RFC 7596) with A+P port-restricted mapping (RFC 7597):
// the carrier-edge workload from ROADMAP item 1. Two apps share the PSID
// arithmetic below:
//
//   * LwAftr — the provider-side tunnel concentrator. IPv4 traffic from the
//     internet is matched against a per-subscriber (ipv4, psid) binding
//     table and encapsulated in IPv6 toward the subscriber's B4; IPv6
//     traffic addressed to the AFTR is source-verified (anti-spoof) and
//     decapsulated — or hairpinned straight to another subscriber's B4
//     without ever leaving the module. Unmappable IPv4 packets can be
//     answered with ICMPv4 destination-unreachable, per RFC 7596 §5.2.
//   * LwB4 — the subscriber-side tunnel endpoint: one (ipv4, psid) lease,
//     encapsulating upstream traffic whose source port falls inside the
//     restricted port set and dropping out-of-set ports (the NAPT44 it
//     fronts must not leak them).
//
// Both apps expose profile() introspection so analysis::PipelineVerifier
// can decide statically whether a given subscriber count fits the cable's
// SRAM and cycle budget — the paper's feasibility question asked of a
// carrier workload.
#pragma once

#include <cstdint>
#include <vector>

#include "ppe/app.hpp"
#include "ppe/tables.hpp"

namespace flexsfp::apps {

// --- A+P port-restricted mapping arithmetic (RFC 7597 §5.1) ----------------
//
// A 16-bit port is laid out as [ a offset bits | k PSID bits | m bits ] with
// a + k <= 16. Ports whose top `a` bits are all zero (the system range
// 0..2^(16-a)-1) belong to no subscriber when a > 0.

struct PsidParams {
  std::uint8_t psid_len = 0;     // k: bits of PSID embedded in the port
  std::uint8_t psid_offset = 0;  // a: excluded high bits (RFC default 6)

  friend constexpr bool operator==(const PsidParams&,
                                   const PsidParams&) = default;
};

/// a + k must fit in a 16-bit port.
[[nodiscard]] constexpr bool psid_params_valid(PsidParams p) {
  return std::uint32_t{p.psid_len} + std::uint32_t{p.psid_offset} <= 16;
}

/// Contiguous low-bit run length m = 16 - a - k.
[[nodiscard]] constexpr std::uint32_t psid_m_bits(PsidParams p) {
  return 16u - p.psid_offset - p.psid_len;
}

/// The PSID whose port set contains `port` (ignoring the exclusion range).
[[nodiscard]] constexpr std::uint16_t psid_of_port(PsidParams p,
                                                   std::uint16_t port) {
  const std::uint32_t m = psid_m_bits(p);
  const std::uint32_t mask = (std::uint32_t{1} << p.psid_len) - 1;
  return static_cast<std::uint16_t>((std::uint32_t{port} >> m) & mask);
}

/// True when `port` sits in the system range no subscriber may use
/// (top `a` bits all zero, a > 0 — ports 0..2^(16-a)-1).
[[nodiscard]] constexpr bool port_excluded(PsidParams p, std::uint16_t port) {
  return p.psid_offset > 0 &&
         (std::uint32_t{port} >> (16u - p.psid_offset)) == 0;
}

/// Membership test: `port` belongs to the subscriber holding `psid`.
[[nodiscard]] constexpr bool port_in_set(PsidParams p, std::uint16_t psid,
                                         std::uint16_t port) {
  return !port_excluded(p, port) && psid_of_port(p, port) == psid;
}

/// Number of ports a single PSID owns: (2^a - 1) * 2^m blocks of m-bit runs
/// (just 2^m when a == 0 — one contiguous range, no exclusion).
[[nodiscard]] constexpr std::uint32_t port_set_size(PsidParams p) {
  const std::uint32_t blocks =
      p.psid_offset > 0 ? (std::uint32_t{1} << p.psid_offset) - 1 : 1;
  return blocks * (std::uint32_t{1} << psid_m_bits(p));
}

/// The `index`-th port (0-based, ascending) of `psid`'s port set — how the
/// bench and tests enumerate a subscriber's legal ports. Precondition:
/// index < port_set_size(p).
[[nodiscard]] constexpr std::uint16_t port_for_index(PsidParams p,
                                                     std::uint16_t psid,
                                                     std::uint32_t index) {
  const std::uint32_t m = psid_m_bits(p);
  const std::uint32_t block = index >> m;           // which A block
  const std::uint32_t within = index & ((std::uint32_t{1} << m) - 1);
  const std::uint32_t a_value = p.psid_offset > 0 ? block + 1 : 0;
  return static_cast<std::uint16_t>((a_value << (16u - p.psid_offset)) |
                                    (std::uint32_t{psid} << m) | within);
}

// --- LwAftr ----------------------------------------------------------------

/// Inner IPv4 flow of a lw4o6 tunnel frame: what the AFTR's anti-spoof
/// check and hairpin match, and the B4's port check, read. Ports are the
/// TCP/UDP ports or the ICMP echo identifier; nullopt when absent.
struct SoftwireInner {
  net::Ipv4Address src;
  net::Ipv4Address dst;
  bool fragment = false;
  std::optional<std::uint16_t> src_port;
  std::optional<std::uint16_t> dst_port;
};

enum class SoftwireMissAction : std::uint8_t {
  drop = 0,
  punt = 1,         // hand to the embedded control plane
  icmp_reject = 2,  // answer with ICMPv4 dest-unreachable (RFC 7596 §5.2)
};

struct LwAftrConfig {
  /// The AFTR's own IPv6 address — tunnel destination for every lwB4 and
  /// the only address decapsulated traffic may target.
  net::Ipv6Address aftr_addr;
  /// Source address of generated ICMPv4 errors.
  net::Ipv4Address icmp_src;
  /// Binding-table geometry: one entry per (ipv4, psid) subscriber lease.
  std::uint32_t binding_capacity = 32768;
  SoftwireMissAction miss_action = SoftwireMissAction::icmp_reject;
  /// Forward subscriber-to-subscriber traffic module-internally instead of
  /// decapsulating it toward the internet.
  bool hairpin = true;
  std::uint8_t tunnel_hop_limit = 64;
  /// High 64 bits composed with the value of a generic table_insert into
  /// "binding" to form the B4 /128 (the typed add_binding() API carries the
  /// full address and ignores this).
  std::uint64_t b4_prefix_hi = 0x20010db8'00000000ull;

  [[nodiscard]] net::Bytes serialize() const;
  [[nodiscard]] static std::optional<LwAftrConfig> parse(net::BytesView data);
};

class LwAftr final : public ppe::PpeApp {
 public:
  explicit LwAftr(LwAftrConfig config = {});

  /// Registry name: "lwaftr".
  [[nodiscard]] std::string name() const override { return "lwaftr"; }

  [[nodiscard]] ppe::Verdict process(ppe::PacketContext& ctx) override;

  [[nodiscard]] hw::ResourceUsage resource_usage(
      const hw::DatapathConfig& datapath) const override;
  [[nodiscard]] hw::ResourceBreakdown resource_breakdown(
      const hw::DatapathConfig& datapath) const;

  [[nodiscard]] net::Bytes serialize_config() const override {
    return config_.serialize();
  }
  [[nodiscard]] ppe::StageProfile profile() const override;

  // --- subscriber provisioning (typed control-plane API) -------------------
  /// Install the lease (ipv4, psid) -> b4. All PSIDs of one shared IPv4
  /// address must agree on `params`; a second binding with different
  /// arithmetic is rejected. Re-adding an existing lease updates its B4.
  bool add_binding(net::Ipv4Address ipv4, std::uint16_t psid,
                   PsidParams params, const net::Ipv6Address& b4);
  bool remove_binding(net::Ipv4Address ipv4, std::uint16_t psid);
  [[nodiscard]] std::optional<net::Ipv6Address> b4_for(
      net::Ipv4Address ipv4, std::uint16_t psid) const;
  [[nodiscard]] std::optional<PsidParams> params_for(
      net::Ipv4Address ipv4) const;
  [[nodiscard]] std::size_t binding_count() const { return binding_.size(); }

  [[nodiscard]] const LwAftrConfig& config() const { return config_; }

  // --- generic control-plane surface ---------------------------------------
  [[nodiscard]] std::vector<std::string> table_names() const override {
    return {"binding", "psid_map"};
  }
  bool table_insert(std::string_view table, std::uint64_t key,
                    std::uint64_t value) override;
  bool table_erase(std::string_view table, std::uint64_t key) override;
  [[nodiscard]] std::optional<std::uint64_t> table_lookup(
      std::string_view table, std::uint64_t key) const override;
  [[nodiscard]] std::vector<ppe::CounterSnapshot> counters() const override;

  // Counter slot indices (shared with the tests/bench ledger).
  enum Stat : std::size_t {
    stat_encapsulated = 0,
    stat_decapsulated = 1,
    stat_hairpinned = 2,
    stat_unmappable_v4 = 3,
    stat_antispoof_dropped = 4,
    stat_fragments_rejected = 5,
    stat_icmp_rejected = 6,
    stat_punted = 7,
    stat_passthrough = 8,
    stat_malformed = 9,
    stat_count = 10,
  };
  [[nodiscard]] std::uint64_t stat_packets(Stat s) const {
    return stats_.packets(s);
  }

 private:
  [[nodiscard]] static std::uint64_t binding_key(net::Ipv4Address ipv4,
                                                 std::uint16_t psid) {
    return (std::uint64_t{ipv4.value()} << 16) | psid;
  }
  [[nodiscard]] ppe::Verdict miss_verdict(ppe::PacketContext& ctx);
  [[nodiscard]] ppe::Verdict process_ipv6(ppe::PacketContext& ctx);
  [[nodiscard]] ppe::Verdict process_ipv4(ppe::PacketContext& ctx);
  /// Map (dst, port) to a lease and encapsulate the IPv4 packet at `l3`
  /// toward its B4, or take the miss action. Shared by the byte-peek and
  /// the parser paths, which differ only in how they found the fields.
  [[nodiscard]] ppe::Verdict encapsulate(ppe::PacketContext& ctx,
                                         std::size_t l3, net::Ipv4Address dst,
                                         std::uint16_t port);
  /// Anti-spoof, then hairpin or decapsulate the tunnel frame whose IPv6
  /// header (already checked: next-header 4, destination aftr_addr) is at
  /// `l3` and whose inner packet is a non-fragment `inner`.
  [[nodiscard]] ppe::Verdict decapsulate(ppe::PacketContext& ctx,
                                         std::size_t l3,
                                         const SoftwireInner& inner);
  /// binding-table hit for (addr, port-derived psid), or nullopt.
  [[nodiscard]] std::optional<std::uint64_t> match_subscriber(
      net::Ipv4Address addr, std::uint16_t port) const;
  void rewrite_as_icmp_unreachable(ppe::PacketContext& ctx);

  LwAftrConfig config_;
  /// ipv4 -> PSID arithmetic for that shared address. The low 16 bits
  /// (offset << 8 | psid_len) are the datapath value the declared 16-bit
  /// SRAM entry holds; bits 16.. carry the control plane's shadow refcount
  /// of leases on the address (soft state living beside the table, not in
  /// it — it never influences a per-packet decision).
  ppe::ExactMatchTable psid_map_;
  /// (ipv4 << 16 | psid) -> slot index into b4_slots_.
  ppe::ExactMatchTable binding_;
  /// Full /128 B4 addresses, indexed by binding_ values; 64-bit table
  /// values cannot hold them, the declared 128-bit entry width can.
  std::vector<net::Ipv6Address> b4_slots_;
  std::vector<std::uint32_t> free_slots_;
  ppe::CounterBank stats_;
};

// --- LwB4 ------------------------------------------------------------------

struct LwB4Config {
  net::Ipv4Address ipv4;       // the shared public address of the lease
  std::uint16_t psid = 0;
  PsidParams params;
  net::Ipv6Address b4_addr;    // this subscriber's tunnel endpoint
  net::Ipv6Address aftr_addr;  // tunnel concentrator
  std::uint8_t tunnel_hop_limit = 64;

  [[nodiscard]] net::Bytes serialize() const;
  [[nodiscard]] static std::optional<LwB4Config> parse(net::BytesView data);
};

class LwB4 final : public ppe::PpeApp {
 public:
  explicit LwB4(LwB4Config config = {});

  /// Registry name: "lwb4".
  [[nodiscard]] std::string name() const override { return "lwb4"; }

  [[nodiscard]] ppe::Verdict process(ppe::PacketContext& ctx) override;

  [[nodiscard]] hw::ResourceUsage resource_usage(
      const hw::DatapathConfig& datapath) const override;
  [[nodiscard]] net::Bytes serialize_config() const override {
    return config_.serialize();
  }
  [[nodiscard]] ppe::StageProfile profile() const override;
  [[nodiscard]] std::vector<ppe::CounterSnapshot> counters() const override;

  [[nodiscard]] const LwB4Config& config() const { return config_; }

  enum Stat : std::size_t {
    stat_encapsulated = 0,
    stat_decapsulated = 1,
    stat_port_out_of_set = 2,
    stat_passthrough = 3,
    stat_malformed = 4,
    stat_count = 5,
  };
  [[nodiscard]] std::uint64_t stat_packets(Stat s) const {
    return stats_.packets(s);
  }

 private:
  LwB4Config config_;
  ppe::CounterBank stats_;
};

}  // namespace flexsfp::apps
