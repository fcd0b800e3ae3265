// The embedded (softcore-class) control plane: a Mi-V RV32 running a
// lightweight loop that performs startup configuration, answers management
// requests (table/counter access) and drives the over-the-network
// reprogramming FSM of §4.2: authenticate reconfiguration packets, assemble
// the bitstream, stage it to SPI flash, trigger a reboot.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hw/bitstream.hpp"
#include "ppe/app.hpp"
#include "sfp/mgmt_protocol.hpp"
#include "sim/simulation.hpp"

namespace flexsfp::sfp {

/// One step of the boot sequence the paper assigns to the Mi-V core:
/// "startup configurations of the transceivers, laser driver and limiting
/// amplifier and the NAT table".
struct BootStep {
  std::string name;
  sim::TimePs duration;
};

[[nodiscard]] std::vector<BootStep> default_boot_sequence();
[[nodiscard]] sim::TimePs boot_duration(const std::vector<BootStep>& steps);

enum class ReconfigState : std::uint8_t {
  idle,
  receiving,  // between begin and commit
  staging,    // verified, handed to the module for flash + reboot
};

struct ControlPlaneConfig {
  hw::AuthKey key;
  net::MacAddress mac;  // source MAC of responses / originated traffic
  /// IP identity of the control plane. When set (Active-CP model, §4.1's
  /// third architecture), the CP terminates traffic addressed to it — e.g.
  /// it answers ICMP echo so operators can ping the transceiver itself.
  std::optional<net::Ipv4Address> ip;
  /// Softcore time to parse + execute one management op (a Mi-V at ~50 MHz
  /// spends a few microseconds per request).
  sim::TimePs op_latency_ps = 2'000'000;  // 2 us
  /// Maximum chunks a transfer may declare (bounds reassembly memory).
  std::size_t max_chunks = 4096;
};

class ControlPlane {
 public:
  ControlPlane(sim::Simulation& sim, ControlPlaneConfig config);

  /// The running app, for table/counter ops (owned by the engine).
  void set_app_provider(std::function<ppe::PpeApp*()> provider) {
    app_provider_ = std::move(provider);
  }
  /// Send a response/originated frame out of the module (wired to
  /// ArchitectureShell::send_from_control on the edge port).
  void set_transmit(std::function<void(net::PacketPtr)> transmit) {
    transmit_ = std::move(transmit);
  }
  /// Called when a verified bitstream is ready to stage (module flashes it
  /// and reboots).
  void set_reconfig_sink(std::function<void(hw::Bitstream)> sink) {
    reconfig_sink_ = std::move(sink);
  }

  /// Entry point for frames the shell punts to the control plane.
  void handle_packet(net::PacketPtr packet);

  [[nodiscard]] ReconfigState reconfig_state() const { return state_; }
  /// Reset the FSM (module calls this after the reboot completes).
  void reconfig_reset() {
    state_ = ReconfigState::idle;
    chunks_.clear();
    chunks_seen_ = 0;
  }

  // --- stats ---------------------------------------------------------------
  [[nodiscard]] std::uint64_t auth_failures() const { return auth_failures_; }
  [[nodiscard]] std::uint64_t responses_sent() const { return responses_; }
  [[nodiscard]] std::uint64_t pings_answered() const { return pings_; }

 private:
  void execute(MgmtRequest request, net::MacAddress reply_to);
  /// Active-CP termination path: answer ICMP echo addressed to our IP.
  void handle_terminated(const net::Packet& packet);
  [[nodiscard]] MgmtResponse dispatch(const MgmtRequest& request);
  [[nodiscard]] MgmtResponse handle_reconfig(const MgmtRequest& request);
  void respond(const MgmtResponse& response, net::MacAddress reply_to);

  sim::Simulation& sim_;
  ControlPlaneConfig config_;
  std::function<ppe::PpeApp*()> app_provider_;
  std::function<void(net::PacketPtr)> transmit_;
  std::function<void(hw::Bitstream)> reconfig_sink_;

  ReconfigState state_ = ReconfigState::idle;
  std::vector<net::Bytes> chunks_;
  std::size_t chunks_seen_ = 0;

  std::uint64_t auth_failures_ = 0;
  std::uint64_t responses_ = 0;
  std::uint64_t pings_ = 0;
};

}  // namespace flexsfp::sfp
