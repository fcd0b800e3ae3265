#include "fabric/traffic_gen.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

namespace flexsfp::fabric {
namespace {

using namespace sim;  // time literals

TEST(TrafficGen, CbrHitsOfferedRate) {
  Simulation sim;
  Sink sink(sim);
  TrafficSpec spec;
  spec.rate = DataRate::gbps(10);
  spec.fixed_size = 1518;
  spec.duration = 1_ms;
  TrafficGen gen(sim, spec, sink);
  gen.start();
  sim.run();
  const double offered = gen.emitted().bits_per_second(spec.duration);
  // Payload rate = 10G x 1518/1542 (wire overhead) ~ 9.84 Gb/s.
  EXPECT_NEAR(offered, 10e9 * 1518.0 / 1542.0, 0.05e9);
  EXPECT_EQ(gen.emitted().packets(), sink.received().packets());
}

TEST(TrafficGen, StopsAtDuration) {
  Simulation sim;
  Sink sink(sim);
  TrafficSpec spec;
  spec.duration = 100_us;
  TrafficGen gen(sim, spec, sink);
  gen.start();
  sim.run();
  EXPECT_LE(sim.now(), 110_us);
  EXPECT_GT(sink.received().packets(), 0u);
}

TEST(TrafficGen, DeterministicForSeed) {
  auto run_once = [](std::uint64_t seed) {
    Simulation sim;
    Sink sink(sim, /*retain_last=*/16);
    TrafficSpec spec;
    spec.seed = seed;
    spec.sizes = SizeDistribution::uniform;
    spec.duration = 50_us;
    TrafficGen gen(sim, spec, sink);
    gen.start();
    sim.run();
    std::vector<net::Bytes> frames;
    for (const auto& packet : sink.retained()) {
      frames.push_back(packet->data());
    }
    return frames;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(TrafficGen, ImixMixesThreeSizes) {
  Simulation sim;
  Sink sink(sim, 1024);
  TrafficSpec spec;
  spec.sizes = SizeDistribution::imix;
  spec.duration = 200_us;
  TrafficGen gen(sim, spec, sink);
  gen.start();
  sim.run();
  std::set<std::size_t> sizes;
  for (const auto& packet : sink.retained()) sizes.insert(packet->size());
  EXPECT_EQ(sizes, (std::set<std::size_t>{64, 594, 1518}));
}

TEST(TrafficGen, FramesAreWellFormed) {
  Simulation sim;
  Sink sink(sim, 256);
  TrafficSpec spec;
  spec.duration = 100_us;
  spec.sizes = SizeDistribution::imix;
  TrafficGen gen(sim, spec, sink);
  gen.start();
  sim.run();
  ASSERT_GT(sink.retained().size(), 0u);
  for (const auto& packet : sink.retained()) {
    const auto parsed = net::parse_packet(packet->data());
    ASSERT_TRUE(parsed.ok());
    ASSERT_TRUE(parsed.outer.ipv4.has_value());
    EXPECT_TRUE(net::validate_packet(parsed, packet->data()).empty());
  }
}

TEST(TrafficGen, ZipfSkewConcentratesFlows) {
  Simulation sim;
  Sink sink(sim, 4096);
  TrafficSpec spec;
  spec.flow_count = 1000;
  spec.zipf_skew = 1.2;
  spec.duration = 500_us;
  TrafficGen gen(sim, spec, sink);
  gen.start();
  sim.run();
  std::map<std::uint32_t, int> per_src;
  for (const auto& packet : sink.retained()) {
    const auto parsed = net::parse_packet(packet->data());
    ++per_src[parsed.outer.ipv4->src.value()];
  }
  int max_count = 0;
  for (const auto& [src, count] : per_src) max_count = std::max(max_count, count);
  const double total = double(sink.retained().size());
  EXPECT_GT(max_count / total, 0.05);  // the top flow dominates
}

TEST(TrafficGen, PoissonArrivalsHaveVariance) {
  Simulation sim;
  std::vector<TimePs> arrivals;
  LambdaHandler capture([&arrivals, &sim](net::PacketPtr) {
    arrivals.push_back(sim.now());
  });
  TrafficSpec spec;
  spec.arrivals = ArrivalProcess::poisson;
  spec.rate = DataRate::gbps(1);
  spec.duration = 1_ms;
  TrafficGen gen(sim, spec, capture);
  gen.start();
  sim.run();
  ASSERT_GT(arrivals.size(), 100u);
  std::set<TimePs> gaps;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    gaps.insert(arrivals[i] - arrivals[i - 1]);
  }
  EXPECT_GT(gaps.size(), arrivals.size() / 2);  // not constant-gap
}

TEST(TrafficGen, FlowTupleStablePerRank) {
  Simulation sim;
  Sink sink(sim);
  TrafficSpec spec;
  TrafficGen gen(sim, spec, sink);
  EXPECT_EQ(gen.flow_tuple(5), gen.flow_tuple(5));
  EXPECT_NE(gen.flow_tuple(5), gen.flow_tuple(6));
}

TEST(TrafficGen, RejectsUnbuildableSizes) {
  Simulation sim;
  Sink sink(sim);
  TrafficSpec spec;
  spec.sizes = SizeDistribution::uniform;
  spec.min_size = 200;
  spec.max_size = 100;
  EXPECT_THROW(TrafficGen(sim, spec, sink), std::invalid_argument);
  spec.min_size = 64;
  spec.max_size = TrafficGen::kMaxFrameBytes + 1;
  EXPECT_THROW(TrafficGen(sim, spec, sink), std::invalid_argument);
  spec.max_size = TrafficGen::kMaxFrameBytes;
  EXPECT_NO_THROW(TrafficGen(sim, spec, sink));

  spec.sizes = SizeDistribution::fixed;
  spec.fixed_size = 70'000;
  EXPECT_THROW(TrafficGen(sim, spec, sink), std::invalid_argument);
  // The largest buildable frame carries IPv4 total_length 65,535.
  Sink kept(sim, 1);
  spec.fixed_size = TrafficGen::kMaxFrameBytes;
  spec.duration = 1_ns;
  TrafficGen gen(sim, spec, kept);
  gen.start();
  sim.run();
  ASSERT_EQ(kept.retained().size(), 1u);
  const net::Bytes& frame = kept.retained()[0]->data();
  const auto parsed = net::parse_packet(frame);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.outer.ipv4->total_length, 65535);
  EXPECT_TRUE(net::validate_packet(parsed, frame).empty());
}

// Differential oracle: every emitted frame equals the frame PacketBuilder
// builds from flow_tuple(rank) and the frame size. The rank comes back from
// the source address (src_base + rank below 65,536); the size is the spec's
// for fixed sizes (frames below 60 bytes are padded) and the frame's own
// otherwise. 5,000 flows put some ranks beyond the generator's header cache.
TEST(TrafficGen, FramesMatchThePacketBuilder) {
  const auto reference = [](const TrafficSpec& spec,
                            const net::FiveTuple& flow, std::size_t size) {
    net::PacketBuilder builder;
    builder.ethernet(spec.dst_mac, spec.src_mac);
    const auto proto = static_cast<net::IpProto>(flow.protocol);
    builder.ipv4(flow.src, flow.dst, proto);
    if (proto == net::IpProto::tcp) {
      builder.tcp(flow.src_port, flow.dst_port);
    } else {
      builder.udp(flow.src_port, flow.dst_port);
    }
    const std::size_t header = proto == net::IpProto::tcp ? 54 : 42;
    builder.payload_size(size > header ? size - header : 0);
    builder.min_frame_size(std::max<std::size_t>(size, 60));
    return builder.build();
  };
  std::vector<TrafficSpec> specs;
  for (std::size_t size = 1; size <= 80; ++size) {
    TrafficSpec spec;
    spec.fixed_size = size;
    spec.duration = 10_us;
    specs.push_back(spec);
  }
  TrafficSpec imix;
  imix.sizes = SizeDistribution::imix;
  imix.duration = 200_us;
  specs.push_back(imix);
  TrafficSpec uniform;
  uniform.sizes = SizeDistribution::uniform;
  uniform.min_size = 60;
  uniform.max_size = 9000;
  uniform.duration = 4_ms;
  specs.push_back(uniform);

  std::uint64_t frames = 0;
  std::uint64_t uncached = 0;  // frames of ranks above the 4,096 cache
  std::set<std::uint8_t> protocols;
  for (const double tcp_fraction : {0.0, 0.5, 1.0}) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      for (TrafficSpec spec : specs) {
        spec.tcp_fraction = tcp_fraction;
        spec.seed = seed;
        spec.flow_count = 5000;
        Simulation sim;
        TrafficGen* gen = nullptr;
        LambdaHandler check([&](net::PacketPtr packet) {
          const net::Bytes& frame = packet->data();
          ASSERT_GE(frame.size(), 34u);
          const std::uint32_t src = (std::uint32_t{frame[26]} << 24) |
                                    (std::uint32_t{frame[27]} << 16) |
                                    (std::uint32_t{frame[28]} << 8) | frame[29];
          const std::size_t rank = src - spec.src_base.value();
          ASSERT_GE(rank, 1u);
          ASSERT_LE(rank, spec.flow_count);
          const std::size_t size = spec.sizes == SizeDistribution::fixed
                                       ? spec.fixed_size
                                       : frame.size();
          const net::FiveTuple flow = gen->flow_tuple(rank);
          ASSERT_EQ(frame, reference(spec, flow, size))
              << "rank " << rank << " size " << size << " seed " << seed
              << " tcp_fraction " << tcp_fraction;
          protocols.insert(flow.protocol);
          uncached += rank > 4096 ? 1 : 0;
          ++frames;
        });
        TrafficGen built(sim, spec, check);
        gen = &built;
        built.start();
        sim.run();
      }
    }
  }
  EXPECT_GT(frames, 50'000u);
  EXPECT_GT(uncached, 100u);
  EXPECT_EQ(protocols.size(), 2u);
}

TEST(Sink, MeasuresEndToEndLatency) {
  Simulation sim;
  Sink sink(sim);
  auto packet = net::make_packet(net::Bytes(64, 0));
  packet->set_created_time_ps(0);
  sim.schedule_at(500_ns, [&sink, packet]() mutable {
    sink.handle_packet(std::move(packet));
  });
  sim.run();
  EXPECT_EQ(sink.latency().count(), 1u);
  EXPECT_NEAR(to_nanos(sink.latency().max()), 500.0, 1.0);
}

}  // namespace
}  // namespace flexsfp::fabric
