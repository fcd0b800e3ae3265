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
#include "sfp/arbiter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

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

}  // namespace
}  // namespace flexsfp::sfp
