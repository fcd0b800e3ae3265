#include "fabric/orchestrator.hpp"

#include <algorithm>

#include "apps/register.hpp"

namespace flexsfp::fabric {

std::string to_string(ModuleHealth health) {
  switch (health) {
    case ModuleHealth::healthy: return "healthy";
    case ModuleHealth::suspect: return "suspect";
    case ModuleHealth::quarantined: return "quarantined";
  }
  return "health(?)";
}

FleetOrchestrator::FleetOrchestrator(sim::Simulation& sim,
                                     OrchestratorConfig config)
    : sim_(sim), config_(config), name_(sim.metrics().unique_name("orch")) {
  health_checks_id_ =
      sim_.metrics().counter("orch.health_checks", {{"orch", name_}});
  health_failures_id_ =
      sim_.metrics().counter("orch.health_failures", {{"orch", name_}});
  quarantines_id_ =
      sim_.metrics().counter("orch.quarantines", {{"orch", name_}});
  recoveries_id_ =
      sim_.metrics().counter("orch.recoveries", {{"orch", name_}});
  golden_redeploys_id_ =
      sim_.metrics().counter("orch.golden_redeploys", {{"orch", name_}});
  quarantined_gauge_id_ =
      sim_.metrics().gauge("orch.quarantined", {{"orch", name_}});
}

void FleetOrchestrator::add_module(
    const std::string& name, net::MacAddress module_mac,
    std::function<void(net::PacketPtr)> transmit) {
  modules_[name] = Module{module_mac, std::move(transmit)};
}

bool FleetOrchestrator::deliver(const net::Packet& packet) {
  const auto body = sfp::mgmt_body(packet);
  if (!body) return false;
  const auto response = sfp::MgmtResponse::parse(*body);
  if (!response) return false;
  const auto it = outstanding_.find(response->seq);
  if (it == outstanding_.end()) return true;  // late duplicate: consumed
  Completion done = std::move(it->second.done);
  outstanding_.erase(it);
  if (done) done(*response);
  return true;
}

void FleetOrchestrator::submit(const std::string& module,
                               sfp::MgmtRequest request, Completion done) {
  const auto it = modules_.find(module);
  if (it == modules_.end()) {
    if (done) done(std::nullopt);
    return;
  }
  request.seq = next_seq_++;
  Outstanding entry{module, std::move(request), std::move(done), 1};
  const std::uint32_t seq = entry.request.seq;
  transmit(entry);
  outstanding_.emplace(seq, std::move(entry));
  arm_timeout(seq, 1);
}

void FleetOrchestrator::transmit(const Outstanding& entry) {
  const Module& module = modules_.at(entry.module);
  auto frame = sim_.packet_pool().make_from(sfp::make_mgmt_frame(
      module.mac, config_.mac, entry.request.serialize(config_.key)));
  ++sent_;
  module.transmit(std::move(frame));
}

sim::TimePs FleetOrchestrator::backoff_for(int attempt) const {
  sim::TimePs timeout = config_.timeout_ps;
  for (int i = 1; i < attempt && timeout < config_.max_timeout_ps; ++i) {
    timeout *= 2;
  }
  return std::min(timeout, config_.max_timeout_ps);
}

void FleetOrchestrator::arm_timeout(std::uint32_t seq, int attempt) {
  sim_.schedule_in(backoff_for(attempt), [this, seq, attempt]() {
    const auto it = outstanding_.find(seq);
    if (it == outstanding_.end()) return;  // answered meanwhile
    if (it->second.attempts != attempt) return;  // a retry is in flight
    if (it->second.attempts > config_.max_retries) {
      ++timeouts_;
      Completion done = std::move(it->second.done);
      outstanding_.erase(it);
      if (done) done(std::nullopt);
      return;
    }
    ++retries_;
    ++it->second.attempts;
    transmit(it->second);
    arm_timeout(seq, it->second.attempts);
  });
}

void FleetOrchestrator::ping(const std::string& module, std::uint64_t value,
                             Completion done) {
  sfp::MgmtRequest request;
  request.op = sfp::MgmtOp::ping;
  request.value = value;
  submit(module, std::move(request), std::move(done));
}

bool FleetOrchestrator::refuse_if_quarantined(const std::string& module,
                                              Completion& done) {
  const auto it = modules_.find(module);
  if (it == modules_.end() || it->second.health != ModuleHealth::quarantined) {
    return false;
  }
  ++refused_;
  if (done) done(std::nullopt);
  return true;
}

void FleetOrchestrator::table_insert(const std::string& module,
                                     const std::string& table,
                                     std::uint64_t key, std::uint64_t value,
                                     Completion done) {
  if (refuse_if_quarantined(module, done)) return;
  sfp::MgmtRequest request;
  request.op = sfp::MgmtOp::table_insert;
  request.table = table;
  request.key = key;
  request.value = value;
  submit(module, std::move(request), std::move(done));
}

void FleetOrchestrator::table_erase(const std::string& module,
                                    const std::string& table,
                                    std::uint64_t key, Completion done) {
  if (refuse_if_quarantined(module, done)) return;
  sfp::MgmtRequest request;
  request.op = sfp::MgmtOp::table_erase;
  request.table = table;
  request.key = key;
  submit(module, std::move(request), std::move(done));
}

void FleetOrchestrator::table_lookup(const std::string& module,
                                     const std::string& table,
                                     std::uint64_t key, Completion done) {
  if (refuse_if_quarantined(module, done)) return;
  sfp::MgmtRequest request;
  request.op = sfp::MgmtOp::table_lookup;
  request.table = table;
  request.key = key;
  submit(module, std::move(request), std::move(done));
}

void FleetOrchestrator::counter_read(const std::string& module,
                                     std::uint64_t index, Completion done) {
  if (refuse_if_quarantined(module, done)) return;
  sfp::MgmtRequest request;
  request.op = sfp::MgmtOp::counter_read;
  request.key = index;
  submit(module, std::move(request), std::move(done));
}

void FleetOrchestrator::deploy_bitstream(const std::string& module,
                                         const hw::Bitstream& bitstream,
                                         Completion done,
                                         std::size_t chunk_size) {
  if (config_.verify_before_deploy) {
    // Make sure the built-in factories exist; a stubbed name is kept.
    apps::register_builtin_apps();
    last_verification_ = analysis::PipelineVerifier(config_.verifier)
                             .verify_bitstream(bitstream);
    if (last_verification_.has_errors()) {
      // Refuse locally: the design would not fit/run on the module, so the
      // bitstream never reaches the wire.
      ++rejected_deployments_;
      if (done) done(std::nullopt);
      return;
    }
  }
  const auto image = std::make_shared<net::Bytes>(bitstream.serialize());
  const std::size_t chunks = (image->size() + chunk_size - 1) / chunk_size;

  // Sequential state machine over completions: begin -> chunk i -> commit.
  // shared_ptr'd recursive lambda keeps the chain alive across events. The
  // stored function must capture itself only weakly — a strong self-capture
  // is a reference cycle the chain would leak on every deployment — while
  // each in-flight completion holds a strong ref to keep the chain alive.
  auto step = std::make_shared<std::function<void(std::size_t)>>();
  auto final_done = std::make_shared<Completion>(std::move(done));

  auto fail = [final_done](std::optional<sfp::MgmtResponse> response) {
    if (*final_done) (*final_done)(std::move(response));
  };

  const std::weak_ptr<std::function<void(std::size_t)>> weak_step = step;
  *step = [this, module, image, chunks, chunk_size, weak_step, final_done,
           fail](std::size_t index) {
    if (index < chunks) {
      sfp::MgmtRequest request;
      request.op = sfp::MgmtOp::reconfig_chunk;
      request.payload.resize(2);
      net::write_be16(request.payload, 0, static_cast<std::uint16_t>(index));
      const std::size_t offset = index * chunk_size;
      const std::size_t len = std::min(chunk_size, image->size() - offset);
      request.payload.insert(request.payload.end(), image->begin() + offset,
                             image->begin() + offset + len);
      auto self = weak_step.lock();  // we are running, so the chain is alive
      submit(module, std::move(request),
             [self, index, fail](std::optional<sfp::MgmtResponse> response) {
               if (!response || response->status != sfp::MgmtStatus::ok) {
                 fail(std::move(response));
                 return;
               }
               (*self)(index + 1);
             });
      return;
    }
    // All chunks delivered: commit.
    sfp::MgmtRequest commit;
    commit.op = sfp::MgmtOp::reconfig_commit;
    submit(module, std::move(commit),
           [final_done](std::optional<sfp::MgmtResponse> response) {
             if (*final_done) (*final_done)(std::move(response));
           });
  };

  sfp::MgmtRequest begin;
  begin.op = sfp::MgmtOp::reconfig_begin;
  begin.payload.resize(2);
  net::write_be16(begin.payload, 0, static_cast<std::uint16_t>(chunks));
  submit(module, std::move(begin),
         [step, fail](std::optional<sfp::MgmtResponse> response) {
           if (!response || response->status != sfp::MgmtStatus::ok) {
             fail(std::move(response));
             return;
           }
           (*step)(0);
         });
}

bool FleetOrchestrator::stage_golden(const hw::Bitstream& image) {
  return golden_store_.write(0, image).has_value();
}

void FleetOrchestrator::start_health_checks() {
  if (health_checks_running_ || config_.health_check_interval_ps == 0) return;
  health_checks_running_ = true;
  schedule_health_round();
}

void FleetOrchestrator::stop_health_checks() {
  health_checks_running_ = false;
}

void FleetOrchestrator::schedule_health_round() {
  sim_.schedule_in(config_.health_check_interval_ps, [this]() {
    if (!health_checks_running_) return;
    run_health_round();
    schedule_health_round();
  });
}

void FleetOrchestrator::run_health_round() {
  for (auto& [name, module] : modules_) {
    (void)module;
    sim_.metrics().add(health_checks_id_);
    ping(name, ++health_nonce_,
         [this, name = name](std::optional<sfp::MgmtResponse> response) {
           on_health_result(name, response.has_value() &&
                                      response->status == sfp::MgmtStatus::ok);
         });
  }
}

void FleetOrchestrator::on_health_result(const std::string& module, bool ok) {
  const auto it = modules_.find(module);
  if (it == modules_.end()) return;
  Module& entry = it->second;
  if (ok) {
    entry.failed_pings = 0;
    if (entry.health == ModuleHealth::quarantined) {
      // The module answers again (rebooted into golden, flap over, ...):
      // recovery is proven by responsiveness, so lift the quarantine.
      sim_.metrics().add(recoveries_id_);
    }
    entry.health = ModuleHealth::healthy;
    set_quarantined_gauge();
    return;
  }
  sim_.metrics().add(health_failures_id_);
  if (entry.health == ModuleHealth::quarantined) return;  // already isolated
  ++entry.failed_pings;
  entry.health = entry.failed_pings >= config_.quarantine_after
                     ? ModuleHealth::quarantined
                     : ModuleHealth::suspect;
  if (entry.health == ModuleHealth::quarantined) quarantine(module);
}

void FleetOrchestrator::quarantine(const std::string& module) {
  sim_.metrics().add(quarantines_id_);
  set_quarantined_gauge();
  if (config_.golden_redeploy && has_golden()) {
    (void)redeploy_golden(module, nullptr);
  }
}

bool FleetOrchestrator::redeploy_golden(const std::string& module,
                                        Completion done) {
  const auto golden = golden_store_.read(0);
  if (!golden) {
    if (done) done(std::nullopt);
    return false;
  }
  sim_.metrics().add(golden_redeploys_id_);
  deploy_bitstream(module, *golden, std::move(done));
  return true;
}

ModuleHealth FleetOrchestrator::health(const std::string& module) const {
  const auto it = modules_.find(module);
  return it == modules_.end() ? ModuleHealth::healthy : it->second.health;
}

std::uint64_t FleetOrchestrator::quarantined_count() const {
  std::uint64_t count = 0;
  for (const auto& [name, module] : modules_) {
    (void)name;
    if (module.health == ModuleHealth::quarantined) ++count;
  }
  return count;
}

void FleetOrchestrator::set_quarantined_gauge() {
  sim_.metrics().set(quarantined_gauge_id_, quarantined_count());
}

}  // namespace flexsfp::fabric
