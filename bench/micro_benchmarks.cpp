// google-benchmark microbenchmarks over the library's hot paths: the
// per-packet primitives a PPE application is composed of. These measure the
// *simulator's* software speed (useful for keeping experiments fast), not
// the modeled hardware throughput.
#include <benchmark/benchmark.h>

#include <array>
#include <vector>

#include "apps/acl.hpp"
#include "apps/load_balancer.hpp"
#include "apps/nat.hpp"
#include "apps/softwire.hpp"
#include "fabric/fabric_testbed.hpp"
#include "fabric/traffic_gen.hpp"
#include "net/builder.hpp"
#include "net/checksum.hpp"
#include "net/packet_pool.hpp"
#include "net/parser.hpp"
#include "ppe/tables.hpp"
#include "sim/event_queue.hpp"
#include "sim/parallel.hpp"
#include "sim/random.hpp"

namespace {

using namespace flexsfp;

net::Bytes sample_frame(std::size_t payload) {
  return net::PacketBuilder()
      .ethernet(net::MacAddress::from_u64(2), net::MacAddress::from_u64(1))
      .ipv4(net::Ipv4Address::from_octets(10, 0, 0, 1),
            net::Ipv4Address::from_octets(192, 168, 0, 1), net::IpProto::tcp)
      .tcp(12345, 443)
      .payload_size(payload)
      .build();
}

void BM_ParsePacket(benchmark::State& state) {
  const auto frame = sample_frame(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::parse_packet(frame));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(frame.size()));
}
BENCHMARK(BM_ParsePacket)->Arg(10)->Arg(512)->Arg(1460);

void BM_InternetChecksum(benchmark::State& state) {
  const net::Bytes data(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::internet_checksum(data));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(64)->Arg(1500);

void BM_IncrementalChecksumUpdate(benchmark::State& state) {
  std::uint16_t checksum = 0x1234;
  for (auto _ : state) {
    checksum = net::checksum_incremental_update(checksum, 0xaaaa, 0xbbbb);
    benchmark::DoNotOptimize(checksum);
  }
}
BENCHMARK(BM_IncrementalChecksumUpdate);

void BM_NatProcess(benchmark::State& state) {
  apps::StaticNat nat;
  nat.add_mapping(net::Ipv4Address::from_octets(10, 0, 0, 1),
                  net::Ipv4Address::from_octets(99, 0, 0, 1));
  net::Packet packet{sample_frame(64)};
  for (auto _ : state) {
    ppe::PacketContext ctx(packet);
    benchmark::DoNotOptimize(nat.process(ctx));
  }
}
BENCHMARK(BM_NatProcess);

// Exact-match probes on the NAT and softwire geometry: a 32,768-entry 4-way
// table, half full, probed with Zipf(1.0)-popular keys. `hit` probes
// resident keys, `miss` absent keys of the same popularity.
void BM_ExactMatchLookup(benchmark::State& state, bool hit) {
  ppe::ExactMatchTable table("t", 32768, 32, 64);
  sim::Rng rng(1);
  std::vector<std::uint64_t> present;
  std::vector<std::uint64_t> absent;
  while (present.size() < 16384) {
    const auto key = rng.next_u64();
    if (table.insert(key, key)) present.push_back(key);
  }
  while (absent.size() < present.size()) {
    const auto key = rng.next_u64();
    if (!table.lookup(key)) absent.push_back(key);
  }
  const sim::ZipfDistribution zipf(present.size(), 1.0);
  std::vector<std::uint64_t> probes(std::size_t{1} << 16);
  for (auto& probe : probes) {
    probe = (hit ? present : absent)[zipf.sample(rng) - 1];
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(probes[i++ & (probes.size() - 1)]));
  }
}
BENCHMARK_CAPTURE(BM_ExactMatchLookup, hit, true);
BENCHMARK_CAPTURE(BM_ExactMatchLookup, miss, false);

// LwAftr::process on softwire_churn-shaped traffic: the softwire-edge AFTR
// (32,768-lease tables) holding 16,384 subscribers, 64 PSIDs per address;
// a 7:4:1 IMIX of 64/594/1518-byte UDP frames with zero checksums, to a
// Zipf(1.0)-popular subscriber and a random port of its set. `down` runs
// internet-to-subscriber frames (encapsulated), `up` the B4's tunnel frames
// (decapsulated). One iteration restores a frame from its template into a
// reused buffer, then processes it.
void BM_LwAftrProcess(benchmark::State& state, bool upstream) {
  constexpr apps::PsidParams params{6, 6};
  constexpr std::size_t subscribers = 16384;
  constexpr std::size_t psids_per_addr = 64;
  apps::LwAftrConfig config;
  config.aftr_addr = *net::Ipv6Address::parse("2001:db8:ffff::1");
  config.icmp_src = net::Ipv4Address::from_octets(192, 0, 2, 1);
  config.binding_capacity = 32768;
  config.miss_action = apps::SoftwireMissAction::punt;
  apps::LwAftr aftr(config);
  const auto address = [](std::size_t g) {
    return net::Ipv4Address{
        net::Ipv4Address::from_octets(198, 18, 0, 0).value() +
        static_cast<std::uint32_t>(g / psids_per_addr)};
  };
  const auto b4 = [](std::size_t g) {
    return net::Ipv6Address::from_u64_pair(0x20010db8'00000000ull,
                                           std::uint64_t(g) + 1);
  };
  for (std::size_t g = 0; g < subscribers; ++g) {
    aftr.add_binding(address(g), std::uint16_t(g % psids_per_addr), params,
                     b4(g));
  }
  const net::Ipv4Address remote = net::Ipv4Address::from_octets(192, 0, 2, 1);
  const sim::ZipfDistribution zipf(subscribers, 1.0);
  sim::Rng rng(1);
  std::vector<net::Bytes> frames(4096);
  for (auto& frame : frames) {
    const std::size_t g = zipf.sample(rng) - 1;
    const std::uint64_t pick = rng.uniform(0, 11);
    const std::size_t size = pick < 7 ? 64 : pick < 11 ? 594 : 1518;
    std::uint16_t port = 0;
    do {
      port = apps::port_for_index(
          params, std::uint16_t(g % psids_per_addr),
          std::uint32_t(rng.uniform(0, apps::port_set_size(params) - 1)));
    } while (port == net::VxlanHeader::udp_port);
    frame = net::PacketBuilder()
                .ethernet(net::MacAddress::from_u64(0x02000000aa02),
                          net::MacAddress::from_u64(0x02000000aa01))
                .ipv4(upstream ? address(g) : remote,
                      upstream ? remote : address(g), net::IpProto::udp)
                .udp(upstream ? port : 9999, upstream ? 9999 : port)
                .min_frame_size(size)
                .payload_size(size - 42)
                .build();
    net::write_be16(frame, 40, 0);  // zero UDP checksum
    if (upstream) {
      net::encapsulate_ipv4_in_ipv6(frame, b4(g), config.aftr_addr);
    }
  }
  net::Packet packet{frames[0]};
  std::size_t i = 0;
  for (auto _ : state) {
    packet.data() = frames[i++ & (frames.size() - 1)];
    ppe::PacketContext ctx(packet);
    benchmark::DoNotOptimize(aftr.process(ctx));
    benchmark::DoNotOptimize(packet.data().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK_CAPTURE(BM_LwAftrProcess, down, false);
BENCHMARK_CAPTURE(BM_LwAftrProcess, up, true);

void BM_TernaryMatch(benchmark::State& state) {
  apps::AclFirewall acl;
  for (int i = 0; i < state.range(0); ++i) {
    apps::AclRuleSpec rule;
    rule.src = net::Ipv4Prefix{
        net::Ipv4Address{std::uint32_t(i) << 16}, 16};
    rule.action = apps::AclAction::deny;
    acl.add_rule(rule);
  }
  net::Packet packet{sample_frame(64)};
  for (auto _ : state) {
    ppe::PacketContext ctx(packet);
    benchmark::DoNotOptimize(acl.process(ctx));
  }
}
BENCHMARK(BM_TernaryMatch)->Arg(16)->Arg(128);

void BM_MaglevRebuild(benchmark::State& state) {
  for (auto _ : state) {
    apps::LoadBalancer lb;
    for (int i = 0; i < state.range(0); ++i) {
      lb.add_backend(apps::Backend{
          static_cast<std::uint32_t>(i),
          net::MacAddress::from_u64(0x100 + std::uint64_t(i)), true});
    }
    benchmark::DoNotOptimize(lb.lookup_table().data());
  }
}
BENCHMARK(BM_MaglevRebuild)->Arg(4)->Arg(16);

void BM_ToeplitzHash(benchmark::State& state) {
  const auto hash = net::ToeplitzHash::symmetric();
  const net::FiveTuple tuple{net::Ipv4Address{0x0a000001},
                             net::Ipv4Address{0xc0a80001}, 1234, 80, 6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash.hash_tuple(tuple));
  }
}
BENCHMARK(BM_ToeplitzHash);

void BM_BuildFrame(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample_frame(512));
  }
}
BENCHMARK(BM_BuildFrame);

void BM_GreEncapDecap(benchmark::State& state) {
  const auto original = sample_frame(256);
  for (auto _ : state) {
    net::Bytes frame = original;
    net::encapsulate_gre(frame, net::Ipv4Address{1}, net::Ipv4Address{2});
    net::decapsulate(frame);
    benchmark::DoNotOptimize(frame.data());
  }
}
BENCHMARK(BM_GreEncapDecap);

// One TrafficGen emit per iteration: draw a size and a flow, assemble the
// frame in a pooled packet and hand it to a handler that drops it. `fixed`
// is nat_64b's stream (CBR, 64 B frames), `uniform` fabric_incast's
// (Poisson, uniform 64–1518 B) and `imix` the 64/594/1518 B cycle; 1,024
// Zipf flows each.
void BM_TrafficGenEmit(benchmark::State& state,
                       fabric::SizeDistribution sizes) {
  fabric::TrafficSpec spec;
  spec.sizes = sizes;
  if (sizes == fabric::SizeDistribution::uniform) {
    spec.arrivals = fabric::ArrivalProcess::poisson;
  }
  spec.duration = sim::TimePs{1} << 50;  // outlasts any timed run
  sim::Simulation sim;
  sim::LambdaHandler drop([](net::PacketPtr) {});
  fabric::TrafficGen gen(sim, spec, drop);
  gen.start();
  for (auto _ : state) sim.step();
  state.SetBytesProcessed(static_cast<std::int64_t>(gen.emitted().bytes()));
}
BENCHMARK_CAPTURE(BM_TrafficGenEmit, fixed64,
                  fabric::SizeDistribution::fixed);
BENCHMARK_CAPTURE(BM_TrafficGenEmit, imix, fabric::SizeDistribution::imix);
BENCHMARK_CAPTURE(BM_TrafficGenEmit, uniform,
                  fabric::SizeDistribution::uniform);

// Event-queue hold model: `depth` events pending, each step pops the
// earliest and pushes one at now + U(0, 2 * depth * 67 ns), so the queue
// stays `depth` deep and events sit about 67 ns apart (one 64 B frame time
// at 10 Gb/s, rounded). One iteration is one pop + one push.
void BM_EventQueueHold(benchmark::State& state) {
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  sim::Rng rng(1);
  std::vector<sim::TimePs> deltas(std::size_t{1} << 16);
  for (auto& delta : deltas) {
    delta = sim::TimePs(rng.uniform(0, 2 * depth * 67'000));
  }
  sim::EventQueue queue;
  std::uint64_t fired = 0;
  std::size_t next = 0;
  for (std::uint64_t i = 0; i < depth; ++i) {
    queue.push(deltas[next++], [&fired]() { ++fired; });
  }
  for (auto _ : state) {
    auto popped = queue.pop();
    const sim::TimePs now = popped.at();
    popped.invoke();
    queue.push(now + deltas[next++ & (deltas.size() - 1)],
               [&fired]() { ++fired; });
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueHold)->Arg(8)->Arg(128)->Arg(1024)->Arg(8192);

// Synchronization cost of one lockstep round: 5 jobs whose advance bodies
// do nothing, so the time per iteration is the round's synchronization
// (every thread publishes its slot and waits for the others'). Job 0, on the
// caller thread, keeps the rounds coming while the benchmark runs; thread
// start-up and the first round fall outside the timed region.
void BM_LockstepRound(benchmark::State& state) {
  bool started = false;
  (void)sim::run_lockstep_rounds(
      5, static_cast<unsigned>(state.range(0)), /*lookahead=*/1,
      /*first_horizon=*/0, [&](std::size_t i, sim::TimePs) {
        if (i != 0) return sim::time_horizon;
        if (!started) {
          started = true;
          return sim::TimePs{0};
        }
        return state.KeepRunning() ? sim::TimePs{0} : sim::time_horizon;
      });
}
BENCHMARK(BM_LockstepRound)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// The fabric engine's cross-world handoff for one frame of `size` bytes, one
// lockstep round per iteration: the source world releases the packet it
// captured two rounds ago (its destination cloned it last round), the
// destination clones last round's capture into its own pool, and the source
// captures a new pooled packet into this round's outbox. Both pools are
// warm, so the steady state reuses recycled capacity on both sides.
void BM_FabricHandoff(benchmark::State& state) {
  net::PacketPool source;
  net::PacketPool destination;
  net::Packet sized(sample_frame(0));
  sized.data().resize(static_cast<std::size_t>(state.range(0)), 0x5a);
  std::array<std::vector<net::PacketPtr>, 2> outbox;
  outbox[1].push_back(source.clone(sized));  // the round before the first
  unsigned parity = 0;
  for (auto _ : state) {
    outbox[parity].clear();  // back to the source pool, a round after its clone
    net::PacketPtr delivered = destination.clone(*outbox[parity ^ 1].front());
    outbox[parity].push_back(source.clone(sized));  // captured at the uplink
    benchmark::DoNotOptimize(delivered->data().data());
    parity ^= 1;
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_FabricHandoff)->Arg(64)->Arg(1518);

// One whole fabric run per iteration. Every module sends Poisson traffic of
// uniform 64–1518 B frames at 4 Gb/s for 2 ms through the crossbar
// (crosspoint capacity 16), and every link drops 2% and duplicates 1%:
// `incast` aims every module at module 0 (at 4 modules, perfbench's
// fabric_incast), `ring` aims module i at module i + 1. The arguments are
// the module count and the worker count, where workers 0 builds and runs a
// single-simulation FabricTestbed and 1, 2 and 4 run the windowed engine at
// that many workers (its run() builds the worlds itself). The fixed
// iteration count keeps a CI smoke short without a --benchmark_min_time
// argument.
enum class FabricShape { incast, ring };

fabric::Topology fabric_topology(FabricShape shape, std::size_t modules) {
  using sim::operator""_ms;
  fabric::Topology topo;
  topo.modules = modules;
  if (shape == FabricShape::incast) topo.targets.assign(modules, 0);
  topo.crosspoint_capacity = 16;
  topo.base_seed = 1;
  fabric::TrafficSpec& spec = topo.traffic_prototype;
  spec.rate = sim::DataRate::gbps(4);
  spec.arrivals = fabric::ArrivalProcess::poisson;
  spec.sizes = fabric::SizeDistribution::uniform;
  spec.min_size = 64;
  spec.max_size = 1518;
  spec.duration = 2_ms;
  sim::FaultSpec faults;
  faults.drop_prob = 0.02;
  faults.duplicate_prob = 0.01;
  faults.seed = 5;
  topo.link_faults = faults;
  return topo;
}

void BM_FabricEngine(benchmark::State& state, FabricShape shape) {
  const fabric::Topology topo = fabric_topology(
      shape, static_cast<std::size_t>(state.range(0)));
  const auto workers = static_cast<unsigned>(state.range(1));
  fabric::FabricParallelTestbed windowed(topo);
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    if (workers == 0) {
      fabric::FabricTestbed single(topo);
      delivered += single.run().ledger.delivered;
    } else {
      delivered += windowed.run(workers).ledger.delivered;
    }
  }
  benchmark::DoNotOptimize(delivered);
}
BENCHMARK_CAPTURE(BM_FabricEngine, incast, FabricShape::incast)
    ->ArgNames({"modules", "workers"})
    ->ArgsProduct({{4, 16}, {0, 1, 2, 4}})
    ->Iterations(10)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_FabricEngine, ring, FabricShape::ring)
    ->ArgNames({"modules", "workers"})
    ->ArgsProduct({{4, 16}, {0, 1, 2, 4}})
    ->Iterations(10)->Unit(benchmark::kMillisecond)->UseRealTime();

// Host cost of reading a fabric's registry: a default-ring FabricTestbed of
// `modules` modules, built but not run. One iteration takes the snapshot,
// then merges a relabeled copy into it — a fold of two snapshots with
// disjoint keys, as the windowed engine does per world after its last
// round. The crossbar carries a series pair per (input, output), so the
// series count (the `series` counter, the merged size) grows with modules².
void BM_Snapshot(benchmark::State& state) {
  fabric::Topology topo;
  topo.modules = static_cast<std::size_t>(state.range(0));
  fabric::FabricTestbed testbed(topo);
  std::size_t series = 0;
  for (auto _ : state) {
    obs::MetricSnapshot merged = testbed.sim().metrics().snapshot();
    merged.merge(merged.with_label("shard", "1"));
    series = merged.size();
  }
  state.counters["series"] = static_cast<double>(series);
}
BENCHMARK(BM_Snapshot)->Arg(16)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
