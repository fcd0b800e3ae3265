#include "fabric/fabric_testbed.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "apps/nat.hpp"
#include "sim/parallel.hpp"

namespace flexsfp::fabric {

namespace detail {

ModuleRig::ModuleRig(sim::Simulation& sim, const Topology& topo,
                     std::size_t module_index, ppe::PpeAppPtr app,
                     std::function<void(net::PacketPtr)> to_fabric)
    : index(module_index) {
  sfp::FlexSfpConfig module_config = topo.module_prototype;
  module_config.boot_at_start = false;
  module = std::make_unique<sfp::FlexSfpModule>(sim, std::move(app),
                                                module_config);
  edge_sink = std::make_unique<Sink>(sim);
  module->set_egress_handler(sfp::FlexSfpModule::edge_port,
                             [this](net::PacketPtr packet) {
                               edge_sink->handle_packet(std::move(packet));
                             });

  // Uplink toward the fabric: serialization only — the engine adds the
  // propagation delay when it moves the packet to the crossbar.
  uplink_capture = std::make_unique<sim::LambdaHandler>(std::move(to_fabric));
  uplink = std::make_unique<sim::Link>(sim, topo.link_rate,
                                       /*propagation_delay=*/0,
                                       *uplink_capture, "fabric_uplink");
  if (topo.link_faults) {
    link_faults = std::make_unique<sim::FaultInjector>(
        sim, topo.link_fault_for(index), *uplink, "fault.fabric_link");
  }
  sim::PacketHandler* uplink_entry =
      link_faults ? static_cast<sim::PacketHandler*>(link_faults.get())
                  : uplink.get();
  module->set_egress_handler(sfp::FlexSfpModule::optical_port,
                             [uplink_entry](net::PacketPtr packet) {
                               uplink_entry->handle_packet(std::move(packet));
                             });

  edge_in = std::make_unique<sim::LambdaHandler>([this](net::PacketPtr p) {
    module->inject(sfp::FlexSfpModule::edge_port, std::move(p));
  });
  gen = std::make_unique<TrafficGen>(sim, topo.traffic_for(index), *edge_in);
}

}  // namespace detail

namespace {

AppFactory default_factory(AppFactory factory) {
  if (factory) return factory;
  return [] { return std::make_unique<apps::StaticNat>(); };
}

FabricModuleResult module_result(const detail::ModuleRig& rig,
                                 sim::TimePs duration) {
  FabricModuleResult out;
  out.sent_packets = rig.gen->emitted().packets();
  out.received_packets = rig.edge_sink->received().packets();
  out.delivered_gbps =
      rig.edge_sink->received().bits_per_second(duration) * 1e-9;
  out.latency_p50_ns = sim::to_nanos(rig.edge_sink->latency().percentile(50));
  out.latency_p99_ns = sim::to_nanos(rig.edge_sink->latency().percentile(99));
  return out;
}

}  // namespace

// --- sequential engine -------------------------------------------------------

FabricTestbed::FabricTestbed(Topology topology, AppFactory app_factory)
    : topo_(std::move(topology)) {
  topo_.validate();
  AppFactory factory = default_factory(std::move(app_factory));
  sim_.flight().configure(topo_.flight);

  CrossbarConfig xbar_config;
  xbar_config.ports = topo_.modules;
  xbar_config.crosspoint_capacity = topo_.crosspoint_capacity;
  xbar_config.port_rate = topo_.link_rate;
  xbar_ = std::make_unique<Crossbar>(
      sim_, xbar_config,
      [this](const net::Packet& packet) { return topo_.route(packet); });

  rigs_.reserve(topo_.modules);
  for (std::size_t i = 0; i < topo_.modules; ++i) {
    rigs_.push_back(std::make_unique<detail::ModuleRig>(
        sim_, topo_, i, factory(), [this, i](net::PacketPtr p) {
          sim_.schedule_in(topo_.link_delay_ps,
                           [this, i, p = std::move(p)]() mutable {
                             xbar_->ingress(i, std::move(p));
                           });
        }));
  }
  for (std::size_t j = 0; j < topo_.modules; ++j) {
    xbar_->set_output_handler(j, [this, j](net::PacketPtr p) {
      // Pin the far module's egress to its edge side: downlink frames must
      // exit toward the host even if a shell's opposite-side rule would
      // disagree (and the hint counter proves the fabric path was taken).
      sfp::set_egress_hint(*p, sfp::FlexSfpModule::edge_port);
      sim_.schedule_in(topo_.link_delay_ps,
                       [this, j, p = std::move(p)]() mutable {
                         rigs_[j]->module->inject(
                             sfp::FlexSfpModule::optical_port, std::move(p));
                       });
    });
  }
}

FabricRunResult FabricTestbed::run() {
  const auto start = std::chrono::steady_clock::now();
  for (auto& rig : rigs_) rig->gen->start();
  sim_.run();

  FabricRunResult out;
  // The same span the windowed engine times: the run, not the collection.
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.duration =
      topo_.traffic_prototype.start + topo_.traffic_prototype.duration;
  for (const auto& rig : rigs_) {
    out.modules.push_back(module_result(*rig, out.duration));
  }
  out.metrics = sim_.metrics().snapshot();
  out.ledger = FabricLedger::from_snapshot(out.metrics);
  out.events = sim_.executed_events();
  out.workers_used = 1;
  return out;
}

// --- conservatively synchronized engine --------------------------------------

namespace {

/// One packet crossing worlds: captured on the source world's thread and
/// owned by the source world's pool for its whole life. The destination
/// clones it at the start of the next round; the source releases it the
/// round after that. `arrival` already includes the link propagation delay,
/// which is what makes it ≥ every future window start.
struct Boundary {
  sim::TimePs arrival = 0;
  std::size_t dest_world = 0;
  int port = 0;  // module port, or crossbar input index
  net::PacketPtr packet;
};

/// The worlds of one thread that wrote to one destination in one round, in
/// world order (a thread advances its worlds in index order). Only that
/// thread writes it, at capture; the destination reads it the next round.
/// `round` says which round the list belongs to, so nobody clears it: the
/// first capture of a round restarts it. Each list has its own cache line,
/// because its destination reads the other parity's list while the sender
/// writes this one.
struct alignas(64) SenderList {
  std::uint64_t round = 0;
  std::vector<std::size_t> worlds;
};

/// One world and its side of the boundary. Only this world's thread writes
/// any of it; the outbox filled last round is read, never written, by its
/// destinations during the current round.
struct World {
  /// The next round starts: release the buffer it refills. Its
  /// destinations cloned those packets last round, so they go back to this
  /// world's own pool, on this world's thread.
  void begin_round() {
    ++round;
    outbox[round & 1].clear();
  }

  /// A packet leaves this world for `dest` at now() + `delay`; `dest` will
  /// find this world in its sender list for the round.
  void capture(std::size_t dest, int port, net::PacketPtr packet,
               sim::TimePs delay) {
    const unsigned fill = round & 1;
    outbox[fill].push_back(Boundary{sim::saturating_add(sim.now(), delay),
                                    dest, port, std::move(packet)});
    SenderList& list = mail[dest * stride][fill];
    if (list.round != round) {
      list.round = round;
      list.worlds.clear();
    }
    if (list.worlds.empty() || list.worlds.back() != self) {
      list.worlds.push_back(self);
    }
  }

  sim::Simulation sim;
  std::size_t self = 0;    // this world's index
  std::uint64_t round = 0;  // rounds begun; round r fills outbox[r & 1]
  /// Round r appends to outbox[r & 1]; its destinations read it in round
  /// r + 1, and this world releases it at the start of round r + 2.
  std::array<std::vector<Boundary>, 2> outbox;
  /// This world's thread's sender lists: destination d's pair (one list
  /// per round parity) is at mail[d * stride].
  std::array<SenderList, 2>* mail = nullptr;
  std::size_t stride = 1;                // threads in the run
  std::vector<std::size_t> senders;      // this round's, merged
  std::vector<const Boundary*> inbound;  // this round's pulled batch
  std::unique_ptr<detail::ModuleRig> rig;  // module worlds
  std::unique_ptr<Crossbar> xbar;          // the crossbar world
};

}  // namespace

FabricParallelTestbed::FabricParallelTestbed(Topology topology,
                                             AppFactory app_factory)
    : topo_(std::move(topology)),
      app_factory_(default_factory(std::move(app_factory))) {
  topo_.validate();
}

FabricRunResult FabricParallelTestbed::run(unsigned workers) {
  const std::size_t modules = topo_.modules;
  const std::size_t xbar_world = modules;
  const sim::TimePs delay = topo_.link_delay_ps;

  std::vector<std::unique_ptr<World>> worlds;
  worlds.reserve(modules + 1);
  for (std::size_t i = 0; i <= modules; ++i) {
    worlds.push_back(std::make_unique<World>());
    worlds.back()->sim.flight().configure(topo_.flight);
  }

  for (std::size_t i = 0; i < modules; ++i) {
    World& world = *worlds[i];
    world.rig = std::make_unique<detail::ModuleRig>(
        world.sim, topo_, i, app_factory_(),
        [&world, xbar_world, i, delay](net::PacketPtr p) {
          world.capture(xbar_world, static_cast<int>(i), std::move(p), delay);
        });
  }
  {
    World& world = *worlds[xbar_world];
    CrossbarConfig xbar_config;
    xbar_config.ports = modules;
    xbar_config.crosspoint_capacity = topo_.crosspoint_capacity;
    xbar_config.port_rate = topo_.link_rate;
    world.xbar = std::make_unique<Crossbar>(
        world.sim, xbar_config,
        [this](const net::Packet& packet) { return topo_.route(packet); });
    for (std::size_t j = 0; j < modules; ++j) {
      world.xbar->set_output_handler(j, [&world, j, delay](net::PacketPtr p) {
        sfp::set_egress_hint(*p, sfp::FlexSfpModule::edge_port);
        world.capture(j, sfp::FlexSfpModule::optical_port, std::move(p),
                      delay);
      });
    }
  }

  for (std::size_t i = 0; i < modules; ++i) worlds[i]->rig->gen->start();

  // World i runs on thread i % pool (the engine's fixed placement), so the
  // sender lists are kept per (destination, thread) and each is written by
  // one thread only.
  const unsigned pool = sim::resolve_threads(worlds.size(), workers);
  std::vector<std::array<SenderList, 2>> mail(worlds.size() * pool);
  for (std::size_t i = 0; i < worlds.size(); ++i) {
    worlds[i]->self = i;
    worlds[i]->mail = mail.data() + i % pool;
    worlds[i]->stride = pool;
  }

  // Pull the batch addressed to world `self` out of the outboxes its
  // senders filled last round, and schedule it in (arrival, source world,
  // capture order): senders are taken in world order and outboxes in
  // capture order, so a stable sort on arrival realizes exactly that key —
  // the tie-break that keeps every worker count bit-identical. Finding the
  // senders reads one list per thread, so an idle destination scans
  // nothing. The source packets are only read; each is cloned into this
  // world's pool.
  const auto pull = [&worlds, &mail, pool](std::size_t self) {
    World& world = *worlds[self];
    const std::uint64_t last = world.round - 1;
    const unsigned filled = last & 1;
    world.senders.clear();
    for (unsigned t = 0; t < pool; ++t) {
      const SenderList& list = mail[self * pool + t][filled];
      if (list.round == last) {
        world.senders.insert(world.senders.end(), list.worlds.begin(),
                             list.worlds.end());
      }
    }
    // Each thread's list is in world order; merge them.
    if (!std::is_sorted(world.senders.begin(), world.senders.end())) {
      std::sort(world.senders.begin(), world.senders.end());
    }
    world.inbound.clear();
    for (const std::size_t src : world.senders) {
      for (const Boundary& boundary : worlds[src]->outbox[filled]) {
        if (boundary.dest_world == self) world.inbound.push_back(&boundary);
      }
    }
    const auto by_arrival = [](const Boundary* a, const Boundary* b) {
      return a->arrival < b->arrival;
    };
    // std::stable_sort takes a heap temporary buffer even for one element;
    // a batch already in order (the common case) skips it.
    if (!std::is_sorted(world.inbound.begin(), world.inbound.end(),
                        by_arrival)) {
      std::stable_sort(world.inbound.begin(), world.inbound.end(), by_arrival);
    }
    for (const Boundary* boundary : world.inbound) {
      if (boundary->arrival < world.sim.now()) {
        throw std::logic_error(
            "conservative-sync violation: boundary packet arrives before the "
            "window start");
      }
      net::PacketPtr packet = world.sim.packet_pool().clone(*boundary->packet);
      if (world.xbar) {
        world.sim.schedule_at(
            boundary->arrival,
            [xbar = world.xbar.get(), in = boundary->port,
             packet = std::move(packet)]() mutable {
              xbar->ingress(static_cast<std::size_t>(in), std::move(packet));
            });
      } else {
        world.sim.schedule_at(
            boundary->arrival,
            [module = world.rig->module.get(), port = boundary->port,
             packet = std::move(packet)]() mutable {
              module->inject(port, std::move(packet));
            });
      }
    }
  };

  // The conservative window bound: every world may run strictly past the
  // globally earliest pending event or boundary arrival plus the link
  // lookahead, because no packet captured before the bound can arrive
  // anywhere earlier than it. The engine takes that minimum over what each
  // round's advance returns; the first bound comes from the queues alone.
  const auto start = std::chrono::steady_clock::now();
  sim::TimePs earliest = sim::time_horizon;
  for (const auto& world : worlds) {
    earliest = std::min(earliest, world->sim.next_event_time());
  }
  std::uint64_t rounds = 0;
  if (earliest != sim::time_horizon) {
    rounds = sim::run_lockstep_rounds(
        worlds.size(), workers, delay, sim::saturating_add(earliest, delay),
        [&](std::size_t self, sim::TimePs horizon) {
          World& world = *worlds[self];
          world.begin_round();
          pull(self);
          (void)world.sim.run_before(horizon);
          // Captures happen at a non-decreasing now(), so the first one
          // arrives first.
          const auto& filled = world.outbox[world.round & 1];
          return std::min(world.sim.next_event_time(),
                          filled.empty() ? sim::time_horizon
                                         : filled.front().arrival);
        });
  }
  // The last round's destinations have cloned everything; release both
  // buffers so every world's pool reads empty in the snapshots below.
  for (auto& world : worlds) {
    for (auto& outbox : world->outbox) outbox.clear();
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  FabricRunResult out;
  out.duration =
      topo_.traffic_prototype.start + topo_.traffic_prototype.duration;
  for (std::size_t i = 0; i < modules; ++i) {
    out.modules.push_back(module_result(*worlds[i]->rig, out.duration));
    out.events += worlds[i]->sim.executed_events();
  }
  out.events += worlds[xbar_world]->sim.executed_events();
  // Merge per-world snapshots in world order with a disambiguating label —
  // the same discipline (and the same resulting object for run(1)) as
  // every other worker count, which is the property the tests assert.
  for (std::size_t i = 0; i < modules; ++i) {
    out.metrics.merge(worlds[i]->sim.metrics().snapshot().with_label(
        "shard", std::to_string(i)));
  }
  out.metrics.merge(
      worlds[xbar_world]->sim.metrics().snapshot().with_label("shard", "xbar"));
  out.ledger = FabricLedger::from_snapshot(out.metrics);
  out.rounds = rounds;
  out.workers_used = pool;
  out.wall_seconds = wall_seconds;
  return out;
}

}  // namespace flexsfp::fabric
