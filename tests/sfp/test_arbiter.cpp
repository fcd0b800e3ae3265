// Differential oracle for the self-clocked egress arbiter.
//
// The reference is the model the arbiter replaced: a line-rate QueuedServer
// whose service completion schedules the egress MAC/PCS delay as a second
// event. Both run in their own Simulation on the same arrival schedule and
// must deliver the same packets at the same picoseconds with the same
// registry tallies and flight hops.
//
// Every arrival is scheduled by an upstream event a short lead before it
// lands, the way an engine drain or an ingress MAC delay schedules it. With
// leads shorter than the shortest wire time, a service completion that
// falls on an arrival's picosecond was always scheduled first, so the
// reference frees the slot before the arrival looks at the queue — the
// arbiter's tie rule by construction.
//
// The second oracle runs a whole shell. The PPE hands each forwarded frame
// to its arbiter at the verdict, stamped with the slot its pipeline drain
// ends at; the reference is the event-per-drain path, in which the frame
// waits for an event at that slot before it reaches the arbiter.
#include "sfp/arbiter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sfp/shell.hpp"
#include "sim/link.hpp"
#include "sim/random.hpp"

namespace flexsfp::sfp {
namespace {

using namespace sim;  // time literals

constexpr TimePs kEgressDelay = 100_ns;
constexpr DataRate kLineRate = line_rate_10g;

class ReferenceArbiter final : public QueuedServer {
 public:
  ReferenceArbiter(Simulation& sim, std::size_t capacity,
                   std::function<void(net::PacketPtr)> output)
      : QueuedServer(sim, capacity, "arbiter"), output_(std::move(output)) {}

 protected:
  TimePs service_time(const net::Packet& packet) override {
    return line_rate_(packet.wire_size());
  }
  void finish(net::PacketPtr packet) override {
    if (sim().flight().sampled(packet->id())) {
      sim().flight().record(packet->id(), flight_stage(), obs::HopKind::egress,
                            sim().now(),
                            static_cast<std::uint32_t>(queue_depth()));
    }
    sim().schedule_in(kEgressDelay, [this, packet = std::move(packet)]() mutable {
      output_(std::move(packet));
    });
  }

 private:
  SerializationTimer line_rate_{kLineRate};
  std::function<void(net::PacketPtr)> output_;
};

struct Arrival {
  TimePs at;
  TimePs lead;  // how long before `at` the upstream event runs
  std::size_t size;
};

struct Delivery {
  TimePs at;
  net::PacketId id;
  friend bool operator==(const Delivery&, const Delivery&) = default;
};

struct Outcome {
  std::vector<Delivery> deliveries;
  std::uint64_t drops = 0;
  std::uint64_t busy_ps = 0;
  std::uint64_t served_packets = 0;
  std::uint64_t served_bytes = 0;
  std::uint64_t watermark = 0;
  std::vector<obs::HopEvent> hops;  // every packet flies, sorted
};

void schedule_arrivals(Simulation& sim, const std::vector<Arrival>& arrivals,
                       std::function<void(net::PacketPtr)> admit) {
  net::PacketId id = 0;
  for (const Arrival& arrival : arrivals) {
    auto packet = net::make_packet(net::Bytes(arrival.size, 0));
    packet->set_id(++id);
    sim.schedule_at(arrival.at - arrival.lead,
                    [&sim, admit, at = arrival.at,
                     packet = std::move(packet)]() mutable {
                      sim.schedule_at(at, [admit, packet = std::move(
                                                      packet)]() mutable {
                        admit(std::move(packet));
                      });
                    });
  }
}

Outcome read_series(const Simulation& sim, Outcome outcome) {
  outcome.hops = sim.flight().events();
  std::sort(outcome.hops.begin(), outcome.hops.end(),
            [](const obs::HopEvent& a, const obs::HopEvent& b) {
              return std::tie(a.packet, a.time_ps, a.kind) <
                     std::tie(b.packet, b.time_ps, b.kind);
            });
  const auto& metrics = sim.metrics();
  outcome.drops = metrics.value("server.queue_drops{stage=arbiter}");
  outcome.busy_ps = metrics.value("server.busy_ps{stage=arbiter}");
  outcome.served_packets =
      metrics.value("server.served.packets{stage=arbiter}");
  outcome.served_bytes = metrics.value("server.served.bytes{stage=arbiter}");
  outcome.watermark =
      metrics.value("server.queue_high_watermark{stage=arbiter}");
  return outcome;
}

Outcome run_reference(const std::vector<Arrival>& arrivals,
                      std::size_t capacity) {
  Simulation sim;
  sim.flight().configure({.capacity = 8192, .sample_every = 1});
  Outcome outcome;
  ReferenceArbiter arbiter(sim, capacity, [&](net::PacketPtr packet) {
    outcome.deliveries.push_back({sim.now(), packet->id()});
  });
  schedule_arrivals(sim, arrivals, [&arbiter](net::PacketPtr packet) {
    arbiter.handle_packet(std::move(packet));
  });
  sim.run();
  return read_series(sim, std::move(outcome));
}

Outcome run_arbiter(const std::vector<Arrival>& arrivals,
                    std::size_t capacity) {
  Simulation sim;
  sim.flight().configure({.capacity = 8192, .sample_every = 1});
  Outcome outcome;
  EgressArbiter arbiter(sim, kLineRate, capacity, kEgressDelay);
  arbiter.set_output([&](net::PacketPtr packet) {
    outcome.deliveries.push_back({sim.now(), packet->id()});
  });
  schedule_arrivals(sim, arrivals, [&arbiter](net::PacketPtr packet) {
    arbiter.handle_packet(std::move(packet));
  });
  sim.run();
  return read_series(sim, std::move(outcome));
}

// The shortest frame here is 60 B: 84 wire bytes, 67.2 ns at 10 Gb/s.
constexpr std::uint64_t kMaxLeadPs = 60'000;

/// Poisson arrivals of 60-1518 B frames at about 1.1x the line rate.
std::vector<Arrival> poisson_imix(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Arrival> arrivals;
  double t = 0;
  for (int i = 0; i < 600; ++i) {
    t += rng.exponential(590'000.0);  // ps; mean frame is 647 ns
    const auto at = static_cast<TimePs>(t);
    const TimePs lead = std::min<TimePs>(at, TimePs(rng.uniform(0, kMaxLeadPs)));
    arrivals.push_back({at, lead, std::size_t(rng.uniform(60, 1518))});
  }
  return arrivals;
}

/// 64 B frames on the 70.4 ns wire-time grid with zero-gap bursts, so
/// arrivals land on departures while a backlog is queued.
std::vector<Arrival> cbr_bursts(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Arrival> arrivals;
  constexpr TimePs kWire = 70'400;  // (64 + 24) B x 800 ps
  for (TimePs slot = 0; slot < 500; ++slot) {
    const TimePs at = slot * kWire;
    const std::uint64_t copies = rng.uniform(0, 9) < 2 ? rng.uniform(2, 6) : 1;
    for (std::uint64_t c = 0; c < copies; ++c) {
      const TimePs lead =
          std::min<TimePs>(at, TimePs(rng.uniform(0, kMaxLeadPs)));
      arrivals.push_back({at, lead, 64});
    }
  }
  return arrivals;
}

void expect_same(const Outcome& reference, const Outcome& arbiter,
                 const char* shape, std::uint64_t seed, std::size_t capacity) {
  SCOPED_TRACE(testing::Message() << shape << " seed " << seed
                                  << " capacity " << capacity);
  EXPECT_EQ(arbiter.deliveries, reference.deliveries);
  EXPECT_EQ(arbiter.drops, reference.drops);
  EXPECT_EQ(arbiter.busy_ps, reference.busy_ps);
  EXPECT_EQ(arbiter.served_packets, reference.served_packets);
  EXPECT_EQ(arbiter.served_bytes, reference.served_bytes);
  EXPECT_EQ(arbiter.watermark, reference.watermark);
  // serve / egress / queue_drop hops: same times, depths and service times.
  EXPECT_EQ(arbiter.hops, reference.hops);
}

TEST(EgressArbiterOracle, MatchesQueuedServerPlusEgressDelay) {
  std::uint64_t drops_seen = 0;
  for (const std::size_t capacity : {2, 4, 64}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      for (const auto& [shape, arrivals] :
           {std::pair{"poisson", poisson_imix(seed)},
            std::pair{"cbr", cbr_bursts(seed)}}) {
        const Outcome reference = run_reference(arrivals, capacity);
        const Outcome arbiter = run_arbiter(arrivals, capacity);
        expect_same(reference, arbiter, shape, seed, capacity);
        drops_seen += reference.drops;
      }
    }
  }
  // The small capacities must actually overflow, or the drop and tie paths
  // went untested.
  EXPECT_GT(drops_seen, 0u);
}

TEST(EgressArbiterOracle, DepartureFreesItsSlotBeforeSamePicosecondArrival) {
  // Capacity 1: packet 1 is in service over [80, 150.4 ns), packet 2
  // waits. Packet 3 lands at exactly 150.4 ns, when packet 1 finishes and
  // packet 2 starts, but its event was scheduled 80 ns ahead — before the
  // reference's service completion for packet 1 existed. The reference
  // therefore sees a full queue and drops it; the arbiter frees the slot
  // first and admits it.
  const std::vector<Arrival> arrivals = {
      {80'000, 80'000, 64}, {80'000, 80'000, 64}, {150'400, 80'000, 64}};
  const Outcome reference = run_reference(arrivals, 1);
  const Outcome arbiter = run_arbiter(arrivals, 1);
  EXPECT_EQ(reference.drops, 1u);
  EXPECT_EQ(arbiter.drops, 0u);
  ASSERT_EQ(arbiter.deliveries.size(), 3u);
  EXPECT_EQ(arbiter.deliveries[2],
            (Delivery{80'000 + 3 * 70'400 + kEgressDelay, 3}));
}

TEST(EgressArbiter, KeepsOneDepartureEventPerBacklog) {
  Simulation sim;
  EgressArbiter arbiter(sim, kLineRate, 64, kEgressDelay);
  std::vector<TimePs> delivered;
  arbiter.set_output([&](net::PacketPtr) { delivered.push_back(sim.now()); });
  for (int i = 0; i < 10; ++i) {
    arbiter.handle_packet(net::make_packet(net::Bytes(64, 0)));
  }
  // Ten packets queued, one event pending: the backlog waits in the
  // arbiter, not in the event queue.
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.run(), 10u);
  ASSERT_EQ(delivered.size(), 10u);
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i], TimePs(i + 1) * 70'400 + kEgressDelay);
  }
}

TEST(EgressArbiter, DestroyedWithDeparturePendingIsSafe) {
  Simulation sim;
  int delivered = 0;
  {
    EgressArbiter arbiter(sim, kLineRate, 4, kEgressDelay);
    arbiter.set_output([&](net::PacketPtr) { ++delivered; });
    arbiter.handle_packet(net::make_packet(net::Bytes(64, 0)));
  }
  EXPECT_EQ(sim.run(), 1u);  // the orphaned departure fires as a no-op
  EXPECT_EQ(delivered, 0);
}

TEST(EgressArbiter, SamePicosecondAdmissionsQueueInSeqOrder) {
  // Two slots on one picosecond, admitted ahead in the wrong order: the
  // later seq came first, so the earlier one pulls it back and goes first.
  Simulation sim;
  EgressArbiter arbiter(sim, kLineRate, 4, kEgressDelay);
  std::vector<Delivery> delivered;
  arbiter.set_output([&](net::PacketPtr packet) {
    delivered.push_back({sim.now(), packet->id()});
  });
  sim.schedule_at(10_ns, [&] {
    const Slot first = sim.reserve_slot(90_ns);
    const Slot second = sim.reserve_slot(90_ns);
    auto a = net::make_packet(net::Bytes(64, 0));
    a->set_id(1);
    auto b = net::make_packet(net::Bytes(64, 0));
    b->set_id(2);
    arbiter.admit(std::move(b), second);
    arbiter.admit(std::move(a), first);
  });
  sim.run();
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], (Delivery{100_ns + 70'400 + kEgressDelay, 1}));
  EXPECT_EQ(delivered[1], (Delivery{100_ns + 2 * 70'400 + kEgressDelay, 2}));
}

// --- Drain slots through a whole shell ---------------------------------------

/// Forwards everything after a pipeline drain of `cycles` clock cycles.
class DrainApp final : public ppe::PpeApp {
 public:
  explicit DrainApp(std::uint64_t cycles) : cycles_(cycles) {}
  std::string name() const override {
    return "drain" + std::to_string(cycles_);
  }
  ppe::Verdict process(ppe::PacketContext&) override {
    return ppe::Verdict::forward;
  }
  hw::ResourceUsage resource_usage(const hw::DatapathConfig&) const override {
    return {};
  }
  std::uint64_t pipeline_latency_cycles() const override { return cycles_; }

 private:
  std::uint64_t cycles_;
};

/// The event-per-drain reference: every forwarded frame waits for an event
/// at its slot, then takes the shell's own path into the arbiter.
void defer_drains(Simulation& sim, ppe::Engine& engine) {
  engine.set_forward_handler([&sim, direct = engine.forward_handler()](
                                 net::PacketPtr packet, Slot slot) {
    sim.schedule_at(slot, [fn = &direct, packet = std::move(packet),
                           slot]() mutable { (*fn)(std::move(packet), slot); });
  });
}

enum class Act : std::uint8_t { inject, control, degrade, restore, replace };

struct Action {
  TimePs at = 0;
  Act act = Act::inject;
  int port = 0;
  std::size_t size = 64;
  int hint = -1;            // egress hint, -1 for none
  std::uint64_t cycles = 0;  // replace: the new app's drain
};

struct Schedule {
  ShellKind kind = ShellKind::two_way_core;
  PpeDirection direction = PpeDirection::edge_to_optical;
  std::size_t capacity = 4;
  std::vector<Action> actions;
};

struct ShellOutcome {
  std::array<std::vector<Delivery>, 2> egress;  // per port, in order
  std::vector<Delivery> control;
  std::vector<obs::MetricSample> series;  // end of run, without sim.queue.*
  std::vector<obs::HopEvent> hops;        // every packet flies, sorted
  std::uint64_t events = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t arbiter_drops = 0;
};

ShellOutcome run_shell(const Schedule& schedule, bool reference) {
  Simulation sim;
  sim.flight().configure({.capacity = 1 << 16, .sample_every = 1});
  ShellConfig config;
  config.kind = schedule.kind;
  config.direction = schedule.direction;
  config.ppe_queue_capacity = 8;
  config.arbiter_queue_capacity = schedule.capacity;
  ArchitectureShell shell(sim, std::make_unique<DrainApp>(40), config);
  ShellOutcome outcome;
  for (const int port : {0, 1}) {
    shell.set_egress_handler(port, [&, port](net::PacketPtr packet) {
      outcome.egress[std::size_t(port)].push_back({sim.now(), packet->id()});
    });
  }
  shell.set_control_rx([&](net::PacketPtr packet) {
    outcome.control.push_back({sim.now(), packet->id()});
  });
  if (reference) defer_drains(sim, shell.engine());

  net::PacketId id = 0;
  for (const Action& action : schedule.actions) {
    net::PacketPtr packet;
    if (action.act == Act::inject || action.act == Act::control) {
      packet = net::make_packet(net::Bytes(action.size, 0));
      packet->set_id(++id);
      if (action.hint >= 0) set_egress_hint(*packet, action.hint);
    }
    sim.schedule_at(action.at, [&shell, action,
                                packet = std::move(packet)]() mutable {
      switch (action.act) {
        case Act::inject: shell.inject(action.port, std::move(packet)); break;
        case Act::control:
          shell.send_from_control(action.port, std::move(packet));
          break;
        case Act::degrade: shell.set_degraded(true); break;
        case Act::restore: shell.set_degraded(false); break;
        case Act::replace:
          shell.engine().replace_app(std::make_unique<DrainApp>(action.cycles));
          break;
      }
    });
  }
  outcome.events = sim.run();
  outcome.forwarded = shell.engine().forwarded();
  const obs::MetricSnapshot snapshot = sim.metrics().snapshot();
  for (const obs::MetricSample& sample : snapshot.samples()) {
    if (sample.name.rfind("sim.queue.", 0) != 0) {
      outcome.series.push_back(sample);
    }
    if (sample.name == "server.queue_drops" &&
        sample.key().find("arbiter") != std::string::npos) {
      outcome.arbiter_drops += sample.value;
    }
  }
  outcome.hops = sim.flight().events();
  std::sort(outcome.hops.begin(), outcome.hops.end(),
            [](const obs::HopEvent& a, const obs::HopEvent& b) {
              return std::tie(a.packet, a.time_ps, a.kind, a.stage, a.aux,
                              a.queue_depth) <
                     std::tie(b.packet, b.time_ps, b.kind, b.stage, b.aux,
                              b.queue_depth);
            });
  return outcome;
}

/// Frames on both ports, control-plane sends, degraded toggles and app
/// swaps to shorter and longer pipelines, over 20 us. Times sit on the PPE
/// clock grid, half the control sends 100 ns (one MAC delay) off it like
/// the demux, and a fifth of the actions share another's picosecond.
Schedule random_schedule(std::uint64_t seed, ShellKind kind,
                         PpeDirection direction, std::size_t capacity) {
  Rng rng(seed);
  Schedule schedule{kind, direction, capacity, {}};
  constexpr TimePs kCycle = 6400;
  TimePs last = 0;
  for (int i = 0; i < 260; ++i) {
    Action action;
    action.at = rng.uniform(0, 9) < 2 ? last
                                      : TimePs(rng.uniform(0, 3125)) * kCycle;
    const std::uint64_t pick = rng.uniform(0, 99);
    if (pick < 78) {
      action.act = Act::inject;
      action.port = int(rng.uniform(0, 1));
    } else if (pick < 92) {
      action.act = Act::control;
      action.port = int(rng.uniform(0, 1));
      if (rng.uniform(0, 1) == 1) action.at += 100_ns;
    } else if (pick < 95) {
      action.act = Act::degrade;
    } else if (pick < 97) {
      action.act = Act::restore;
    } else {
      action.act = Act::replace;
      action.cycles = std::array<std::uint64_t, 5>{0, 2, 4, 12, 40}
          [rng.uniform(0, 4)];
    }
    action.size = rng.uniform(0, 3) == 0 ? rng.uniform(60, 1518) : 64;
    if (rng.uniform(0, 7) == 0) action.hint = int(rng.uniform(0, 1));
    last = action.at;
    schedule.actions.push_back(action);
  }
  std::stable_sort(schedule.actions.begin(), schedule.actions.end(),
                   [](const Action& a, const Action& b) { return a.at < b.at; });
  return schedule;
}

TEST(DrainSlotOracle, MatchesEventPerDrainThroughTheShell) {
  std::uint64_t schedules = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t drops = 0;
  std::uint64_t events_saved = 0;
  std::uint64_t fallbacks = 0;
  const std::array<std::pair<ShellKind, PpeDirection>, 3> shells = {
      std::pair{ShellKind::two_way_core, PpeDirection::edge_to_optical},
      std::pair{ShellKind::one_way_filter, PpeDirection::edge_to_optical},
      std::pair{ShellKind::one_way_filter, PpeDirection::optical_to_edge}};
  for (const auto& [kind, direction] : shells) {
    for (const std::size_t capacity : {2, 6}) {
      for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const Schedule schedule =
            random_schedule(seed, kind, direction, capacity);
        const ShellOutcome reference = run_shell(schedule, true);
        const ShellOutcome slots = run_shell(schedule, false);
        SCOPED_TRACE(testing::Message()
                     << to_string(kind) << " direction " << int(direction)
                     << " capacity " << capacity << " seed " << seed);
        EXPECT_EQ(slots.egress[0], reference.egress[0]);
        EXPECT_EQ(slots.egress[1], reference.egress[1]);
        EXPECT_EQ(slots.control, reference.control);
        EXPECT_EQ(slots.series, reference.series);
        EXPECT_EQ(slots.hops, reference.hops);
        // One event fewer per forwarded frame, give or take the
        // pulled-back and deferred admissions the slots run as events.
        EXPECT_LE(slots.events, reference.events);
        fallbacks += slots.events - (reference.events - reference.forwarded);
        events_saved += reference.events - slots.events;
        forwarded += reference.forwarded;
        drops += reference.arbiter_drops;
        ++schedules;
      }
    }
  }
  EXPECT_GE(schedules, 120u);
  // The schedules overflow the arbiters and take the event fallback, or
  // the drop and pull-back paths went untested.
  EXPECT_GT(drops, 0u);
  EXPECT_GT(fallbacks, 0u);
  EXPECT_GT(events_saved, forwarded / 2);
}

/// One 64 B data frame from the edge through a 40-cycle pipeline: demux at
/// 100 ns, verdict at 151.2 ns, drain slot at 407.2 ns. On its own it would
/// leave the optical arbiter at 407.2 + 70.4 + 100 = 577.6 ns.
struct OneFrameRig {
  explicit OneFrameRig(ShellKind kind, std::uint64_t cycles = 40) {
    ShellConfig config;
    config.kind = kind;
    shell = std::make_unique<ArchitectureShell>(
        sim, std::make_unique<DrainApp>(cycles), config);
    for (const int port : {0, 1}) {
      shell->set_egress_handler(port, [this, port](net::PacketPtr packet) {
        egress[std::size_t(port)].push_back({sim.now(), packet->id()});
      });
    }
  }
  net::PacketPtr frame(net::PacketId id) {
    auto packet = net::make_packet(net::Bytes(64, 0));
    packet->set_id(id);
    return packet;
  }

  Simulation sim;
  std::unique_ptr<ArchitectureShell> shell;
  std::array<std::vector<Delivery>, 2> egress;
};

constexpr TimePs kWire64 = 70'400;  // (64 + 24) B x 800 ps

TEST(DrainSlotPullBack, ControlPlaneSendDuringTheDrainGoesFirst) {
  OneFrameRig rig(ShellKind::one_way_filter);
  rig.shell->inject(ArchitectureShell::edge_port, rig.frame(1));
  rig.sim.schedule_at(300_ns, [&] {
    rig.shell->send_from_control(ArchitectureShell::optical_port,
                                 rig.frame(2));
  });
  rig.sim.run();
  EXPECT_EQ(rig.egress[1],
            (std::vector<Delivery>{{300_ns + kWire64 + kEgressDelay, 2},
                                   {407'200 + kWire64 + kEgressDelay, 1}}));
}

TEST(DrainSlotPullBack, DegradedFrameDuringTheDrainGoesFirst) {
  OneFrameRig rig(ShellKind::two_way_core);
  rig.shell->inject(ArchitectureShell::edge_port, rig.frame(1));
  rig.sim.schedule_at(160_ns, [&] { rig.shell->set_degraded(true); });
  // Reaches the demux at 300 ns and crosses straight to the optical side.
  rig.sim.schedule_at(200_ns, [&] {
    rig.shell->inject(ArchitectureShell::edge_port, rig.frame(2));
  });
  rig.sim.run();
  EXPECT_EQ(rig.shell->degraded_forwards(), 1u);
  EXPECT_EQ(rig.egress[1],
            (std::vector<Delivery>{{300_ns + kWire64 + kEgressDelay, 2},
                                   {407'200 + kWire64 + kEgressDelay, 1}}));
}

TEST(DrainSlotPullBack, OneWayFilterReverseFrameDuringTheDrainGoesFirst) {
  OneFrameRig rig(ShellKind::one_way_filter);
  // The processed frame hairpins back out of the edge, where the reverse
  // direction's frames merge.
  auto hairpin = rig.frame(1);
  set_egress_hint(*hairpin, ArchitectureShell::edge_port);
  rig.shell->inject(ArchitectureShell::edge_port, std::move(hairpin));
  rig.sim.schedule_at(200_ns, [&] {
    rig.shell->inject(ArchitectureShell::optical_port, rig.frame(2));
  });
  rig.sim.run();
  EXPECT_EQ(rig.egress[0],
            (std::vector<Delivery>{{300_ns + kWire64 + kEgressDelay, 2},
                                   {407'200 + kWire64 + kEgressDelay, 1}}));
}

TEST(DrainSlotPullBack, SwapToAShorterPipelineOvertakesTheDrain) {
  OneFrameRig rig(ShellKind::two_way_core);
  rig.shell->inject(ArchitectureShell::edge_port, rig.frame(1));
  rig.shell->inject(ArchitectureShell::edge_port, rig.frame(2));
  // Frame 2 is served over [151.2, 202.4 ns) by a 1-cycle pipeline: its
  // slot, 208.8 ns, is ahead of frame 1's 407.2 ns.
  rig.sim.schedule_at(160_ns, [&] {
    rig.shell->engine().replace_app(std::make_unique<DrainApp>(1));
  });
  rig.sim.run();
  EXPECT_EQ(rig.egress[1],
            (std::vector<Delivery>{{208'800 + kWire64 + kEgressDelay, 2},
                                   {407'200 + kWire64 + kEgressDelay, 1}}));
}

TEST(DrainSlotPullBack, SeqDecidesASamePicosecondControlSend) {
  // Both control sends land on frame 1's drain picosecond, 407.2 ns. The
  // one scheduled before the verdict sorts ahead of the drain slot, the one
  // scheduled after it behind.
  OneFrameRig rig(ShellKind::one_way_filter);
  rig.shell->inject(ArchitectureShell::edge_port, rig.frame(1));
  rig.sim.schedule_at(407'200, [&] {
    rig.shell->send_from_control(ArchitectureShell::optical_port,
                                 rig.frame(2));
  });
  rig.sim.schedule_at(160_ns, [&] {
    rig.sim.schedule_at(407'200, [&] {
      rig.shell->send_from_control(ArchitectureShell::optical_port,
                                   rig.frame(3));
    });
  });
  rig.sim.run();
  EXPECT_EQ(rig.egress[1],
            (std::vector<Delivery>{{407'200 + kWire64 + kEgressDelay, 2},
                                   {407'200 + 2 * kWire64 + kEgressDelay, 1},
                                   {407'200 + 3 * kWire64 + kEgressDelay, 3}}));
}

}  // namespace
}  // namespace flexsfp::sfp
