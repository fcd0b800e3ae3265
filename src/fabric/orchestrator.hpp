// Fleet orchestrator: the central controller the paper's §4.1 envisions
// ("essential for centralized orchestration across a fleet of FlexSFPs").
// Speaks the management protocol to many modules, with sequence tracking,
// timeouts and retransmission — and drives complete bitstream deployments.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "analysis/verifier.hpp"
#include "hw/bitstream.hpp"
#include "hw/spi_flash.hpp"
#include "sfp/mgmt_protocol.hpp"
#include "sim/simulation.hpp"

namespace flexsfp::fabric {

/// Orchestrator-side view of a module's liveness.
enum class ModuleHealth : std::uint8_t {
  healthy,
  suspect,      // missed at least one health ping
  quarantined,  // missed `quarantine_after` consecutive pings: isolated
};

[[nodiscard]] std::string to_string(ModuleHealth health);

struct OrchestratorConfig {
  hw::AuthKey key;
  net::MacAddress mac = net::MacAddress::from_u64(0x020000000911);
  sim::TimePs timeout_ps = 10'000'000'000;  // 10 ms per request
  int max_retries = 3;
  /// Retry timeouts back off exponentially: attempt n waits
  /// timeout_ps * 2^(n-1), capped here. A module that is dark for a long
  /// reboot is probed gently instead of being hammered at the base period.
  sim::TimePs max_timeout_ps = 80'000'000'000;  // 80 ms cap
  /// Period of the health-check ping loop (start_health_checks()).
  sim::TimePs health_check_interval_ps = 50'000'000'000;  // 50 ms
  /// Consecutive failed health pings before a module is quarantined.
  int quarantine_after = 2;
  /// Redeploy the staged golden image (stage_golden()) automatically when a
  /// module is quarantined.
  bool golden_redeploy = true;
  /// Statically verify every bitstream before pushing it to a module;
  /// designs with error-severity diagnostics are refused without touching
  /// the wire. Opt out for bring-up experiments only.
  bool verify_before_deploy = true;
  /// Target device/datapath the verification runs against.
  analysis::VerifierOptions verifier{};
};

class FleetOrchestrator {
 public:
  /// Completion carries the response, or nullopt after retries exhausted.
  using Completion = std::function<void(std::optional<sfp::MgmtResponse>)>;

  FleetOrchestrator(sim::Simulation& sim, OrchestratorConfig config);

  /// Register a module: its MAC plus a transmit function that puts a frame
  /// on the wire toward it (directly or through a switch fabric).
  void add_module(const std::string& name, net::MacAddress module_mac,
                  std::function<void(net::PacketPtr)> transmit);

  /// Feed frames arriving at the orchestrator NIC; management responses are
  /// consumed (true), everything else ignored (false).
  bool deliver(const net::Packet& packet);

  // --- operations ------------------------------------------------------------
  void ping(const std::string& module, std::uint64_t value,
            Completion done);
  void table_insert(const std::string& module, const std::string& table,
                    std::uint64_t key, std::uint64_t value, Completion done);
  void table_erase(const std::string& module, const std::string& table,
                   std::uint64_t key, Completion done);
  void table_lookup(const std::string& module, const std::string& table,
                    std::uint64_t key, Completion done);
  void counter_read(const std::string& module, std::uint64_t index,
                    Completion done);
  /// Full chunked deployment: begin -> every chunk -> commit, sequentially,
  /// each leg covered by the retry machinery. Completion fires with the
  /// commit response (or nullopt on any unrecoverable leg). When
  /// `verify_before_deploy` is set (the default), the design is statically
  /// verified first and an error-severity report fails the deployment
  /// synchronously — the infeasible bitstream never reaches the wire.
  void deploy_bitstream(const std::string& module,
                        const hw::Bitstream& bitstream, Completion done,
                        std::size_t chunk_size = 256);

  /// Diagnostics of the most recent deploy_bitstream verification (empty
  /// before the first verified deployment).
  [[nodiscard]] const analysis::DiagnosticReport& last_verification() const {
    return last_verification_;
  }

  // --- health / recovery -----------------------------------------------------
  /// Stage the fleet-wide golden image into the orchestrator's local flash
  /// (slot 0). Quarantined modules are re-imaged from it. Returns false when
  /// the image does not fit the slot.
  bool stage_golden(const hw::Bitstream& image);
  [[nodiscard]] bool has_golden() const {
    return golden_store_.read(0).has_value();
  }

  /// Begin the periodic ping health-check loop (no-op when already running
  /// or the configured interval is zero). Modules that miss
  /// `quarantine_after` consecutive pings are quarantined: normal table /
  /// counter operations are refused locally, and — when `golden_redeploy`
  /// is set and a golden image is staged — a golden re-image is pushed.
  /// Quarantined modules keep being pinged; the first successful ping
  /// clears the quarantine (recovery is proven by responsiveness, not by a
  /// deploy completing).
  void start_health_checks();
  void stop_health_checks();

  [[nodiscard]] ModuleHealth health(const std::string& module) const;
  [[nodiscard]] std::uint64_t quarantined_count() const;

  /// Push the staged golden image to `module` (also fired automatically on
  /// quarantine). False (and completion with nullopt) when none is staged.
  bool redeploy_golden(const std::string& module, Completion done);

  // --- stats -----------------------------------------------------------------
  [[nodiscard]] std::uint64_t requests_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t retransmissions() const { return retries_; }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }
  /// Deployments refused by the static verification gate.
  [[nodiscard]] std::uint64_t rejected_deployments() const {
    return rejected_deployments_;
  }
  // Registry-backed (obs:: spine): orch.health_checks, orch.health_failures,
  // orch.quarantines, orch.recoveries, orch.golden_redeploys counters and
  // the orch.quarantined gauge, all labeled {orch=<name>}.
  [[nodiscard]] std::uint64_t health_checks_sent() const {
    return sim_.metrics().value(health_checks_id_);
  }
  [[nodiscard]] std::uint64_t health_failures() const {
    return sim_.metrics().value(health_failures_id_);
  }
  [[nodiscard]] std::uint64_t quarantines() const {
    return sim_.metrics().value(quarantines_id_);
  }
  [[nodiscard]] std::uint64_t recoveries() const {
    return sim_.metrics().value(recoveries_id_);
  }
  [[nodiscard]] std::uint64_t golden_redeploys() const {
    return sim_.metrics().value(golden_redeploys_id_);
  }
  /// Operations refused locally because the target was quarantined.
  [[nodiscard]] std::uint64_t refused_operations() const { return refused_; }

 private:
  struct Module {
    net::MacAddress mac;
    std::function<void(net::PacketPtr)> transmit;
    ModuleHealth health = ModuleHealth::healthy;
    int failed_pings = 0;
  };
  struct Outstanding {
    std::string module;
    sfp::MgmtRequest request;
    Completion done;
    int attempts = 0;
  };

  void submit(const std::string& module, sfp::MgmtRequest request,
              Completion done);
  void transmit(const Outstanding& entry);
  void arm_timeout(std::uint32_t seq, int attempt);
  /// Timeout for the given attempt number: timeout_ps * 2^(attempt-1),
  /// capped at max_timeout_ps.
  [[nodiscard]] sim::TimePs backoff_for(int attempt) const;
  /// True (and completes with nullopt) when `module` is quarantined: normal
  /// operations are refused locally while the module is isolated.
  bool refuse_if_quarantined(const std::string& module, Completion& done);
  void schedule_health_round();
  void run_health_round();
  void on_health_result(const std::string& module, bool ok);
  void quarantine(const std::string& module);
  void set_quarantined_gauge();

  sim::Simulation& sim_;
  OrchestratorConfig config_;
  std::string name_;
  std::map<std::string, Module> modules_;
  std::map<std::uint32_t, Outstanding> outstanding_;
  hw::SpiFlash golden_store_{/*slots=*/1};
  std::uint32_t next_seq_ = 1;
  std::uint64_t sent_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t rejected_deployments_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t health_nonce_ = 0;
  bool health_checks_running_ = false;
  obs::MetricId health_checks_id_;
  obs::MetricId health_failures_id_;
  obs::MetricId quarantines_id_;
  obs::MetricId recoveries_id_;
  obs::MetricId golden_redeploys_id_;
  obs::MetricId quarantined_gauge_id_;
  analysis::DiagnosticReport last_verification_;
};

}  // namespace flexsfp::fabric
