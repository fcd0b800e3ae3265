#include "fabric/fabric_testbed.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <type_traits>
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

/// The fixed head of one frame crossing worlds by value. The frame's bytes
/// follow it, padded to whole words. `arrival` already includes the link
/// propagation delay, which is what makes it ≥ every future window start.
struct Record {
  sim::TimePs arrival = 0;
  std::uint32_t source = 0;  // world index
  std::int32_t port = 0;     // module port, or crossbar input index
  std::uint64_t size = 0;    // frame bytes
  net::PacketMeta meta;
};
static_assert(std::is_trivially_copyable_v<Record> && sizeof(Record) % 8 == 0);
constexpr std::size_t kRecordWords = sizeof(Record) / 8;

/// The frames one thread's worlds sent to one destination in one round, as
/// records in world order (a thread advances its worlds in index order) and
/// then capture order. Only that thread writes it, at capture; the
/// destination reads it the next round. `round` says which round it holds,
/// so nobody clears it: the first capture of a round restarts it. Each
/// mailbox has its own cache line, because its destination reads the other
/// parity's mailbox while the sender writes this one.
struct alignas(64) Mailbox {
  void append(const Record& head, const net::Bytes& bytes) {
    const std::size_t words = kRecordWords + (bytes.size() + 7) / 8;
    if (buffer.size() < used + words) buffer.resize(2 * (used + words));
    std::memcpy(buffer.data() + used, &head, sizeof head);
    std::memcpy(buffer.data() + used + kRecordWords, bytes.data(),
                bytes.size());
    used += words;
  }

  std::uint64_t round = 0;
  std::size_t used = 0;  // words of `buffer` holding this round's records
  std::vector<std::uint64_t> buffer;
};

/// A record the destination read, and where its bytes are.
struct Inbound {
  Record head;
  const std::uint64_t* bytes = nullptr;
};

/// One world and its side of the boundary. Only this world's thread writes
/// any of it.
struct World {
  /// Round `round + 1` starts: read the records addressed to this world
  /// from the mailboxes its senders filled last round and schedule them in
  /// (arrival, source world, capture order). Each mailbox is in world order
  /// and then capture order, so a stable sort on (arrival, source) realizes
  /// exactly that key — the tie-break that keeps every worker count
  /// bit-identical. Each frame is rebuilt in this world's pool.
  void begin_round() {
    const std::uint64_t last = round++;
    first_arrival = sim::time_horizon;
    inbound.clear();
    for (std::size_t t = 0; t < stride; ++t) {
      const Mailbox& box = inbox[t][last & 1];
      if (box.round != last) continue;
      for (std::size_t at = 0; at < box.used;) {
        Inbound& in = inbound.emplace_back();
        std::memcpy(static_cast<void*>(&in.head), box.buffer.data() + at,
                    sizeof in.head);
        in.bytes = box.buffer.data() + at + kRecordWords;
        at += kRecordWords + (in.head.size + 7) / 8;
      }
    }
    const auto before = [](const Inbound& a, const Inbound& b) {
      return a.head.arrival != b.head.arrival
                 ? a.head.arrival < b.head.arrival
                 : a.head.source < b.head.source;
    };
    // std::stable_sort takes a heap temporary buffer even for one element;
    // a batch already in order (the common case) skips it.
    if (!std::is_sorted(inbound.begin(), inbound.end(), before)) {
      std::stable_sort(inbound.begin(), inbound.end(), before);
    }
    for (const Inbound& in : inbound) {
      if (in.head.arrival < sim.now()) {
        throw std::logic_error(
            "conservative-sync violation: boundary packet arrives before the "
            "window start");
      }
      net::PacketPtr packet = sim.packet_pool().make();
      const auto* bytes = reinterpret_cast<const std::uint8_t*>(in.bytes);
      packet->data().assign(bytes, bytes + in.head.size);
      packet->set_metadata(in.head.meta);
      sim.schedule_at(in.head.arrival, [this, port = in.head.port,
                                        packet = std::move(packet)]() mutable {
        if (xbar) {
          xbar->ingress(static_cast<std::size_t>(port), std::move(packet));
        } else {
          rig->module->inject(port, std::move(packet));
        }
      });
    }
  }

  /// A packet leaves this world for `dest` at now() + `delay`: its bytes
  /// and metadata go into the mailbox `dest` reads next round, and the
  /// packet itself goes back to this world's pool when `packet` drops.
  void capture(std::size_t dest, int port, net::PacketPtr packet,
               sim::TimePs delay) {
    Mailbox& box = outbox[dest * stride][round & 1];
    if (box.round != round) {
      box.round = round;
      box.used = 0;
    }
    const Record head{sim::saturating_add(sim.now(), delay),
                      static_cast<std::uint32_t>(self), port, packet->size(),
                      packet->metadata()};
    box.append(head, packet->data());
    first_arrival = std::min(first_arrival, head.arrival);
  }

  sim::Simulation sim;
  std::size_t self = 0;     // this world's index
  std::uint64_t round = 0;  // rounds begun; round r fills mailboxes r & 1
  sim::TimePs first_arrival = sim::time_horizon;  // of this round's captures
  /// Mailboxes per (destination, thread), one per round parity: this
  /// world's thread writes destination d's at outbox[d * stride], and this
  /// world reads thread t's at inbox[t].
  std::array<Mailbox, 2>* outbox = nullptr;
  const std::array<Mailbox, 2>* inbox = nullptr;
  std::size_t stride = 1;        // threads in the run
  std::vector<Inbound> inbound;  // this round's batch
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
  // mailboxes are kept per (destination, thread) and each is written by one
  // thread only.
  const unsigned pool = sim::resolve_threads(worlds.size(), workers);
  std::vector<std::array<Mailbox, 2>> mail(worlds.size() * pool);
  for (std::size_t i = 0; i < worlds.size(); ++i) {
    worlds[i]->self = i;
    worlds[i]->outbox = mail.data() + i % pool;
    worlds[i]->inbox = mail.data() + i * pool;
    worlds[i]->stride = pool;
  }

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
          (void)world.sim.run_before(horizon);
          return std::min(world.sim.next_event_time(), world.first_arrival);
        });
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
