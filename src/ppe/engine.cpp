#include "ppe/engine.hpp"

#include <utility>

namespace flexsfp::ppe {

Engine::Engine(sim::Simulation& sim, PpeAppPtr app, hw::DatapathConfig datapath,
               std::size_t queue_capacity)
    : sim::QueuedServer(sim, queue_capacity, "ppe"),
      app_(std::move(app)),
      datapath_(datapath) {
  bind_app_series();
  // The app's CounterBanks are the live in-datapath tallies; the collector
  // reads them through the registry at snapshot time instead of mirroring
  // them into a second count. It follows app_ across replace_app().
  collector_token_ = sim.metrics().register_collector(
      [this](obs::MetricSnapshot& snap) { collect_counter_banks(snap); });
}

Engine::~Engine() { sim().metrics().unregister_collector(collector_token_); }

void Engine::replace_app(PpeAppPtr app) {
  app_ = std::move(app);
  bind_app_series();
}

void Engine::bind_app_series() {
  drain_ = datapath_.clock.cycles_to_time(app_->pipeline_latency_cycles());
  auto& metrics = sim().metrics();
  const obs::Labels labels{{"app", app_->name()}, {"stage", stage_name()}};
  forwarded_id_ = metrics.counter("engine.forwarded", labels);
  dropped_id_ = metrics.counter("engine.app_drops", labels);
  punted_id_ = metrics.counter("engine.punted", labels);
  const auto remember = [](std::vector<obs::MetricId>& ids, obs::MetricId id) {
    for (const obs::MetricId seen : ids) {
      if (seen.index == id.index) return;  // same app name re-deployed
    }
    ids.push_back(id);
  };
  remember(forwarded_ids_, forwarded_id_);
  remember(dropped_ids_, dropped_id_);
  remember(punted_ids_, punted_id_);
}

void Engine::collect_counter_banks(obs::MetricSnapshot& snap) const {
  for (const CounterSnapshot& counter : app_->counters()) {
    obs::Labels labels{{"app", app_->name()},
                       {"bank", counter.bank},
                       {"index", std::to_string(counter.index)},
                       {"stage", stage_name()}};
    snap.add_sample({"app.counter.packets", labels, obs::MetricKind::counter,
                     counter.packets});
    snap.add_sample({"app.counter.bytes", std::move(labels),
                     obs::MetricKind::counter, counter.bytes});
  }
}

std::uint64_t Engine::sum(const std::vector<obs::MetricId>& ids) const {
  std::uint64_t total = 0;
  for (const obs::MetricId id : ids) total += sim().metrics().value(id);
  return total;
}

sim::TimePs Engine::service_time(const net::Packet& packet) {
  if (packet.size() != last_size_) {
    last_size_ = packet.size();
    const std::uint64_t beats = std::max<std::uint64_t>(
        datapath_.beats_for(packet.size()), 1);
    last_service_ = datapath_.clock.cycles_to_time(beats);
  }
  return last_service_;
}

void Engine::finish(net::PacketPtr packet) {
  PacketContext ctx(*packet);
  const Verdict verdict = app_->process(ctx);

  if (ctx.mirror_requested() && control_) {
    control_(sim().packet_pool().clone(*packet));
  }

  // The packet leaves the pipeline pipeline-depth cycles after its last
  // beat (drain_, cached at app-bind time); this adds latency but does not
  // occupy the bus.
  const sim::TimePs drain = drain_;

  auto& flight = sim().flight();
  const bool flying = flight.sampled(packet->id());
  const auto record_verdict = [&](obs::HopKind kind) {
    if (!flying) return;
    flight.record(packet->id(), flight_stage(), kind, sim().now(),
                  static_cast<std::uint32_t>(queue_depth()),
                  std::uint64_t(drain));
  };

  switch (verdict) {
    case Verdict::forward:
      sim().metrics().add(forwarded_id_);
      record_verdict(obs::HopKind::forward);
      if (forward_) forward_(std::move(packet), sim().reserve_slot(drain));
      break;
    case Verdict::drop:
      sim().metrics().add(dropped_id_);
      record_verdict(obs::HopKind::app_drop);
      break;
    case Verdict::to_control_plane:
      sim().metrics().add(punted_id_);
      record_verdict(obs::HopKind::punt);
      if (control_) {
        sim().schedule_in(drain, [this, token = lifetime_token(),
                                  packet = std::move(packet)]() mutable {
          if (!token.alive()) return;  // engine torn down during drain
          control_(std::move(packet));
        });
      }
      break;
  }
}

}  // namespace flexsfp::ppe
