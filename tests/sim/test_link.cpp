#include "sim/link.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace flexsfp::sim {
namespace {

net::PacketPtr packet_of(std::size_t size) {
  return net::make_packet(net::Bytes(size, 0));
}

class Collector final : public PacketHandler {
 public:
  explicit Collector(Simulation& sim) : sim_(sim) {}
  void handle_packet(net::PacketPtr packet) override {
    arrivals.emplace_back(sim_.now(), std::move(packet));
  }
  std::vector<std::pair<TimePs, net::PacketPtr>> arrivals;

 private:
  Simulation& sim_;
};

TEST(Link, SerializationPlusPropagation) {
  Simulation sim;
  Collector sink(sim);
  Link link(sim, line_rate_10g, 5_ns, sink);
  link.handle_packet(packet_of(64));  // wire 88 B -> 70.4 ns
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].first, 70'400_ps + 5_ns);
}

TEST(Link, BackToBackPacketsQueueBehindTransmitter) {
  Simulation sim;
  Collector sink(sim);
  Link link(sim, line_rate_10g, 0, sink);
  link.handle_packet(packet_of(64));
  link.handle_packet(packet_of(64));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].first, 70'400_ps);
  EXPECT_EQ(sink.arrivals[1].first, 140'800_ps);
}

TEST(Link, UtilizationAccountsBusyTime) {
  Simulation sim;
  Collector sink(sim);
  Link link(sim, line_rate_10g, 0, sink);
  link.handle_packet(packet_of(64));
  sim.run();
  EXPECT_EQ(link.busy_time(), 70'400_ps);
  EXPECT_NEAR(link.utilization(140'800_ps), 0.5, 1e-9);
  EXPECT_EQ(link.meter().packets(), 1u);
  EXPECT_EQ(link.meter().bytes(), 64u);
  // The wire meter counts the bytes busy_ps is computed from (frame +
  // preamble/IFG), so occupancy math never mixes units with goodput.
  EXPECT_EQ(link.wire_meter().packets(), 1u);
  EXPECT_EQ(link.wire_meter().bytes(), 88u);
}

TEST(BoundedQueue, DropsWhenFull) {
  BoundedQueue queue(2);
  EXPECT_TRUE(queue.push(packet_of(1)));
  EXPECT_TRUE(queue.push(packet_of(2)));
  EXPECT_FALSE(queue.push(packet_of(3)));
  EXPECT_EQ(queue.size(), 2u);
}

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue queue(4);
  auto a = packet_of(1);
  auto b = packet_of(2);
  queue.push(a);
  queue.push(b);
  EXPECT_EQ(queue.pop(), a);
  EXPECT_EQ(queue.pop(), b);
  EXPECT_EQ(queue.pop(), nullptr);
}

// A server taking a fixed 100 ns per packet.
class FixedServer final : public QueuedServer {
 public:
  FixedServer(Simulation& sim, std::size_t capacity, Collector& out)
      : QueuedServer(sim, capacity), out_(out) {}

 protected:
  TimePs service_time(const net::Packet&) override { return 100_ns; }
  void finish(net::PacketPtr packet) override {
    out_.handle_packet(std::move(packet));
  }

 private:
  Collector& out_;
};

TEST(QueuedServer, ServesSequentially) {
  Simulation sim;
  Collector sink(sim);
  FixedServer server(sim, 16, sink);
  for (int i = 0; i < 3; ++i) server.handle_packet(packet_of(64));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(sink.arrivals[0].first, 100_ns);
  EXPECT_EQ(sink.arrivals[1].first, 200_ns);
  EXPECT_EQ(sink.arrivals[2].first, 300_ns);
  EXPECT_EQ(server.busy_time(), 300_ns);
}

TEST(QueuedServer, OverflowCountsDrops) {
  Simulation sim;
  Collector sink(sim);
  FixedServer server(sim, 2, sink);
  // One in service + 2 queued fit; the 4th (while the 1st is in service)
  // overflows.
  for (int i = 0; i < 4; ++i) server.handle_packet(packet_of(64));
  sim.run();
  EXPECT_EQ(server.drops(), 1u);
  EXPECT_EQ(sink.arrivals.size(), 3u);
}

TEST(Link, ReportsThroughMetricRegistry) {
  Simulation sim;
  Collector sink(sim);
  Link link(sim, line_rate_10g, 0, sink, "uplink");
  Link twin(sim, line_rate_10g, 0, sink, "uplink");  // name uniquified
  EXPECT_EQ(link.name(), "uplink");
  EXPECT_EQ(twin.name(), "uplink1");
  link.handle_packet(packet_of(64));
  sim.run();
  const auto snap = sim.metrics().snapshot();
  EXPECT_EQ(snap.value("link.traffic.packets{link=uplink}"), 1u);
  EXPECT_EQ(snap.value("link.traffic.bytes{link=uplink}"), 64u);
  EXPECT_EQ(snap.value("link.busy_ps{link=uplink}"), 70'400u);
  EXPECT_EQ(snap.value("link.traffic.packets{link=uplink1}"), 0u);
}

TEST(Link, RecordsTransitHopsForSampledPackets) {
  Simulation sim;
  sim.flight().configure({.capacity = 8, .sample_every = 1});
  Collector sink(sim);
  Link link(sim, line_rate_10g, 5_ns, sink, "wire");
  auto packet = packet_of(64);
  packet->set_id(sim.next_packet_id());
  link.handle_packet(std::move(packet));
  sim.run();
  const auto trace = sim.flight().trace(1);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].kind, obs::HopKind::transit);
  EXPECT_EQ(sim.flight().stage_name(trace[0].stage), "wire");
  EXPECT_EQ(trace[0].aux, 70'400u);  // serialization time rides in aux
}

TEST(QueuedServer, ReportsThroughMetricRegistry) {
  Simulation sim;
  sim.flight().configure({.capacity = 16, .sample_every = 1});
  Collector sink(sim);
  FixedServer server(sim, 2, sink);
  EXPECT_EQ(server.stage_name(), "server");
  for (int i = 0; i < 4; ++i) {
    auto packet = packet_of(64);
    packet->set_id(sim.next_packet_id());
    server.handle_packet(std::move(packet));
  }
  sim.run();
  const auto snap = sim.metrics().snapshot();
  EXPECT_EQ(snap.value("server.queue_drops{stage=server}"), 1u);
  EXPECT_EQ(snap.value("server.served.packets{stage=server}"), 3u);
  EXPECT_EQ(snap.value("server.queue_high_watermark{stage=server}"), 2u);
  EXPECT_EQ(snap.value("server.busy_ps{stage=server}"),
            std::uint64_t(300_ns));
  // The overflowed packet (id 4) recorded a queue-drop hop.
  const auto trace = sim.flight().trace(4);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].kind, obs::HopKind::queue_drop);
  // Served packets each recorded a serve hop with the service time in aux.
  const auto served = sim.flight().trace(1);
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].kind, obs::HopKind::serve);
  EXPECT_EQ(served[0].aux, std::uint64_t(100_ns));
}

// Regression for the scheduled-lambda `this` captures: Link::handle_packet
// and QueuedServer::start_service both schedule events that dereference the
// component. Destroying the component while those events are in flight must
// be safe — the lifetime token turns the stale event into a no-op. Without
// the token these tests are a use-after-free the ASan CI build catches.
TEST(Link, DestroyedWhilePacketInFlightIsSafe) {
  Simulation sim;
  Collector sink(sim);
  auto link = std::make_unique<Link>(sim, line_rate_10g, 5_ns, sink);
  link->handle_packet(packet_of(64));  // arrival event now holds `this`
  link.reset();                        // torn down before the event fires
  sim.run();
  EXPECT_TRUE(sink.arrivals.empty());  // the in-flight packet died with it
}

TEST(QueuedServer, DestroyedMidServiceIsSafe) {
  Simulation sim;
  Collector sink(sim);
  auto server = std::make_unique<FixedServer>(sim, 16, sink);
  server->handle_packet(packet_of(64));  // finish event scheduled at +100ns
  server->handle_packet(packet_of(64));  // queued behind it
  server.reset();
  sim.run();
  EXPECT_TRUE(sink.arrivals.empty());
}

TEST(QueuedServer, ResumesAfterIdle) {
  Simulation sim;
  Collector sink(sim);
  FixedServer server(sim, 16, sink);
  server.handle_packet(packet_of(64));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  server.handle_packet(packet_of(64));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[1].first, sink.arrivals[0].first + 100_ns);
}

}  // namespace
}  // namespace flexsfp::sim
