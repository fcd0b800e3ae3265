// The Packet Processing Engine application abstraction.
//
// An app is the unit the FlexSFP workflow deploys: "the developer writes the
// packet function ... the build framework integrates this into an
// architecture shell" (§4.2). Here an app is a C++ object with
//   * a per-packet process() function that may edit the frame in place,
//   * an FPGA resource estimate for a given datapath geometry,
//   * a control-plane surface (named tables and counters),
//   * config (de)serialization, which is what a "bitstream" carries.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hw/clock.hpp"
#include "hw/resources.hpp"
#include "net/packet.hpp"
#include "net/parser.hpp"
#include "ppe/counters.hpp"
#include "ppe/introspect.hpp"

namespace flexsfp::ppe {

/// What the pipeline does with the packet after the app ran.
enum class Verdict : std::uint8_t {
  forward,           // continue to the egress interface
  drop,              // silently discard
  to_control_plane,  // punt to the embedded CPU
};

[[nodiscard]] std::string to_string(Verdict verdict);

/// Per-packet working state handed through a chain of apps: the mutable
/// frame plus a lazily (re)built parse of it, so consecutive stages don't
/// pay for reparsing unless an earlier stage edited the bytes.
class PacketContext {
 public:
  explicit PacketContext(net::Packet& packet) : packet_(packet) {}

  [[nodiscard]] net::Packet& packet() { return packet_; }
  [[nodiscard]] const net::Packet& packet() const { return packet_; }
  [[nodiscard]] net::Bytes& bytes() { return packet_.data(); }

  /// Parsed view of the current bytes (parsed on first use).
  [[nodiscard]] const net::ParsedPacket& parsed();
  /// Call after editing bytes() so the next parsed() reflects the edit.
  void invalidate_parse() { parsed_.reset(); }

  /// Ask the engine to deliver a copy of this packet to the control plane
  /// in addition to the normal verdict (sampling/mirroring).
  void request_mirror() { mirror_ = true; }
  [[nodiscard]] bool mirror_requested() const { return mirror_; }

 private:
  net::Packet& packet_;
  std::optional<net::ParsedPacket> parsed_;
  bool mirror_ = false;
};

/// Base class for all PPE applications.
class PpeApp {
 public:
  virtual ~PpeApp() = default;

  /// Stable registry name ("nat", "acl", ...). Bitstreams reference it.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Process one packet; may edit ctx.bytes() (then call
  /// ctx.invalidate_parse()).
  [[nodiscard]] virtual Verdict process(PacketContext& ctx) = 0;

  /// FPGA footprint of this app's logic for a datapath geometry.
  [[nodiscard]] virtual hw::ResourceUsage resource_usage(
      const hw::DatapathConfig& datapath) const = 0;

  /// Fixed pipeline depth in cycles added to every packet (parser +
  /// match + action + deparser register stages).
  [[nodiscard]] virtual std::uint64_t pipeline_latency_cycles() const {
    return 8;
  }

  // --- static introspection (deploy-time verification) --------------------
  /// Declared static profile of this stage: header reads/writes, table
  /// geometry, per-packet cycle cost. Derived from configuration only, so
  /// the analysis::PipelineVerifier can check a design before deployment.
  /// The default is deliberately conservative: it claims nothing beyond
  /// what the base class knows (wire-header reads, 1-cycle match-action).
  [[nodiscard]] virtual StageProfile profile() const;
  /// The stage sequence this app contributes to a pipeline — one entry for
  /// simple apps, one per stage for compositions (AppChain overrides).
  [[nodiscard]] virtual std::vector<StageProfile> stage_profiles() const;
  /// Visit the concrete stage apps in the same order (and flattening) as
  /// stage_profiles(): `this` for simple apps, each member stage for
  /// compositions. Lets deploy-time analyses that need more than the
  /// declared profile (e.g. the BPF abstract interpreter reading a stage's
  /// program) align an app with its profile entry.
  virtual void visit_stages(
      const std::function<void(const PpeApp&)>& visit) const {
    visit(*this);
  }

  /// Serialized configuration, the payload a bitstream carries. Empty means
  /// the app has no static configuration.
  [[nodiscard]] virtual net::Bytes serialize_config() const { return {}; }

  // --- control-plane surface ----------------------------------------------
  /// Names of runtime-updatable tables.
  [[nodiscard]] virtual std::vector<std::string> table_names() const {
    return {};
  }
  /// Insert/update `key -> value` in the named table. False on unknown
  /// table or table-full.
  virtual bool table_insert(std::string_view table, std::uint64_t key,
                            std::uint64_t value) {
    (void)table; (void)key; (void)value;
    return false;
  }
  virtual bool table_erase(std::string_view table, std::uint64_t key) {
    (void)table; (void)key;
    return false;
  }
  [[nodiscard]] virtual std::optional<std::uint64_t> table_lookup(
      std::string_view table, std::uint64_t key) const {
    (void)table; (void)key;
    return std::nullopt;
  }
  /// Snapshot of all counters for telemetry export.
  [[nodiscard]] virtual std::vector<CounterSnapshot> counters() const {
    return {};
  }

  /// Locate a stage by registry name — `this` for simple apps, a member
  /// stage for compositions (AppChain overrides). Lets control-plane
  /// services (e.g. the flow exporter) find the app they serve.
  [[nodiscard]] virtual PpeApp* find_stage(std::string_view stage_name) {
    return stage_name == name() ? this : nullptr;
  }

  PpeApp() = default;
  PpeApp(const PpeApp&) = delete;
  PpeApp& operator=(const PpeApp&) = delete;
};

using PpeAppPtr = std::unique_ptr<PpeApp>;

}  // namespace flexsfp::ppe
