// RFC 2544/8219-style benchmark of the lw4o6 softwire AFTR: binary-search
// the highest offered rate whose loss stays under a configurable threshold,
// with bidirectional traffic (IPv4 downstream from the internet side,
// pre-encapsulated IPv6 upstream from the subscriber B4s), Zipf subscriber
// popularity, latency percentiles and PDV from the sink histograms, plus a
// churn trial (fault injector + lease expire/re-add + out-of-set ports)
// closed by the zero-black-hole ledger.
//
// The run is subscriber-sharded across 4 independent ModuleTestbeds merged
// by shard index, so the reported figures are bit-identical at any worker
// count — the determinism audit below re-runs the 64-byte search twice and
// at workers {1, 2, 4} and gates on equality.
//
// Usage: rfc8219_softwire [subscribers] [trial_us] [workers]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/softwire.hpp"
#include "bench_util.hpp"
#include "fabric/fabric_testbed.hpp"
#include "fabric/testbed.hpp"
#include "net/builder.hpp"
#include "net/bytes.hpp"
#include "sim/parallel.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace {

using namespace flexsfp;

constexpr std::size_t kShards = 4;
constexpr int kSearchSteps = 7;       // 10 Gb/s / 2^7 ~ 0.08 Gb/s resolution
constexpr double kLossThreshold = 0.001;  // RFC 8219 acceptable-loss knob
// RFC 7597's default-style layout: a = 6 excluded bits, k = 6 PSID bits,
// m = 4 -> 64 subscribers per shared IPv4, 1008 ports each.
constexpr apps::PsidParams kParams{6, 6};
constexpr std::uint16_t kPsidsPerAddr = 64;

const net::Ipv6Address aftr_addr() {
  return *net::Ipv6Address::parse("2001:db8:ffff::1");
}
net::Ipv4Address subscriber_ipv4(std::size_t global) {
  // 198.18.0.0/15 is the RFC 2544 benchmarking block.
  return net::Ipv4Address{net::Ipv4Address::from_octets(198, 18, 0, 0).value() +
                          static_cast<std::uint32_t>(global / kPsidsPerAddr)};
}
std::uint16_t subscriber_psid(std::size_t global) {
  return static_cast<std::uint16_t>(global % kPsidsPerAddr);
}
net::Ipv6Address subscriber_b4(std::size_t global) {
  return net::Ipv6Address::from_u64_pair(0x20010db8'00000000ull,
                                         static_cast<std::uint64_t>(global) + 1);
}

// Defaults are the committed baseline's arguments (1024 50 2), so a bare
// run reproduces bench/baselines/BENCH_rfc8219.json.
struct TrialSpec {
  std::size_t subscribers = 1024;
  double rate_gbps = 10.0;       // offered per direction
  std::size_t frame_size = 64;   // IPv4 frame; the v6 side carries +40
  sim::TimePs duration = 50'000'000;  // 50 us
  unsigned workers = 2;
  bool churn = false;            // faults + lease churn + out-of-set ports
};

/// Sum of the `name` series carrying every label in `match`, over all
/// shards of a merged snapshot.
std::uint64_t sum_where(const obs::MetricSnapshot& snapshot,
                        std::string_view name, const obs::Labels& match) {
  std::uint64_t total = 0;
  for (const obs::MetricSample& sample : snapshot.samples()) {
    const auto has = [&sample](const auto& label) {
      return std::find(sample.labels.begin(), sample.labels.end(), label) !=
             sample.labels.end();
    };
    if (sample.name == name && std::all_of(match.begin(), match.end(), has)) {
      total += sample.value;
    }
  }
  return total;
}

/// What a trial measured: every registry series (one shard's labelled
/// {shard=N}, or all shards merged in index order) plus the two sink
/// latency histograms, which live outside the registry.
struct TrialResult {
  obs::MetricSnapshot metrics;
  sim::LatencyHistogram lat_down;  // measured at the optical-side sink
  sim::LatencyHistogram lat_up;    // measured at the edge-side sink

  void merge(const TrialResult& shard) {
    metrics.merge(shard.metrics);
    lat_down.merge(shard.lat_down);
    lat_up.merge(shard.lat_up);
  }
  [[nodiscard]] double worst_loss() const {
    const auto loss = [this](const char* gen, const char* sink) {
      const std::uint64_t sent =
          sum_where(metrics, "gen.emitted.packets", {{"gen", gen}});
      const std::uint64_t recv =
          sum_where(metrics, "sink.received.packets", {{"sink", sink}});
      return sent > 0 ? 1.0 - double(recv) / double(sent) : 0.0;
    };
    // ModuleTestbed registers its edge sink ("sink") before its optical
    // sink ("sink1"); downstream traffic lands on the optical side.
    return std::max(loss("down", "sink1"), loss("up", "sink"));
  }
  [[nodiscard]] std::uint64_t lwaftr_drops(std::size_t stat) const {
    return sum_where(metrics, "app.counter.packets",
                     {{"bank", "lwaftr_stats"},
                      {"index", std::to_string(stat)}});
  }
};

/// Steady-state CBR emitter: copies a per-subscriber template into a pooled
/// packet, patches the A+P port, and re-arms itself one serialization slot
/// later — the same pacing discipline as fabric::TrafficGen, with the
/// subscriber chosen by Zipf popularity.
struct Emitter {
  /// Counts into the `gen.emitted` series fabric::TrafficGen writes, so the
  /// fabric ledger reads this emitter unchanged.
  Emitter(sim::Simulation& simulation, const char* direction)
      : sim(&simulation),
        emitted(simulation.metrics(), "gen.emitted", {{"gen", direction}}) {}

  sim::Simulation* sim;
  sim::PacketHandler* out = nullptr;
  const std::vector<net::Bytes>* templates = nullptr;
  const std::vector<std::uint16_t>* psids = nullptr;
  sim::ZipfDistribution* zipf = nullptr;
  sim::Rng rng{1};
  std::size_t port_offset = 0;  // where the patched port lives in the frame
  sim::TimePs gap = 0;
  sim::TimePs stop_at = 0;
  sim::TrafficMeter emitted;
  /// churn only: one emit in 16 uses a port from the excluded system range,
  /// provoking the unmappable/anti-spoof drop paths (port-set exhaustion).
  bool inject_out_of_set = false;

  void emit() {
    if (sim->now() >= stop_at) return;
    const std::size_t j = zipf->sample(rng) - 1;
    net::PacketPtr packet = sim->packet_pool().make();
    packet->data() = (*templates)[j];
    std::uint16_t port;
    if (inject_out_of_set && rng.uniform(0, 15) == 0) {
      port = static_cast<std::uint16_t>(rng.uniform(1, 1023));  // excluded
    } else {
      port = apps::port_for_index(
          kParams, (*psids)[j],
          static_cast<std::uint32_t>(
              rng.uniform(0, apps::port_set_size(kParams) - 1)));
    }
    net::write_be16(packet->data(), port_offset, port);
    packet->set_id(sim->next_packet_id());
    packet->set_created_time_ps(sim->now());
    emitted.record(packet->size());
    out->handle_packet(std::move(packet));
    sim->schedule_in(gap, [this] { emit(); });
  }
};

TrialResult run_shard(const TrialSpec& spec, std::size_t shard) {
  const std::size_t per_shard = spec.subscribers / kShards;
  const std::size_t base = shard * per_shard;

  fabric::TestbedConfig config;
  if (spec.churn) {
    sim::FaultSpec faults;
    faults.drop_prob = 0.01;
    faults.duplicate_prob = 0.002;
    faults.reorder_prob = 0.02;
    faults.seed = sim::derive_stream_seed(8219, shard);
    config.edge_faults = faults;
  }

  apps::LwAftrConfig aftr_config;
  aftr_config.aftr_addr = aftr_addr();
  aftr_config.icmp_src = net::Ipv4Address::from_octets(192, 0, 2, 254);
  aftr_config.binding_capacity =
      static_cast<std::uint32_t>(per_shard * 2);  // 0.5 load factor
  aftr_config.miss_action = apps::SoftwireMissAction::drop;
  auto app = std::make_unique<apps::LwAftr>(aftr_config);
  apps::LwAftr* aftr = app.get();
  for (std::size_t j = 0; j < per_shard; ++j) {
    const std::size_t g = base + j;
    if (!aftr->add_binding(subscriber_ipv4(g), subscriber_psid(g), kParams,
                           subscriber_b4(g))) {
      std::fprintf(stderr, "rfc8219: binding %zu failed\n", g);
      std::exit(1);
    }
  }
  fabric::ModuleTestbed tb(std::move(config), std::move(app));

  // Per-subscriber frame templates, both directions, built once at setup.
  // UDP checksums are zeroed (legal over IPv4) so the per-emit port patch
  // needs no checksum fixup.
  const net::MacAddress core_mac = net::MacAddress::from_u64(0x02000000aa01);
  const net::MacAddress aftr_mac = net::MacAddress::from_u64(0x02000000aa02);
  const net::Ipv4Address remote = net::Ipv4Address::from_octets(192, 0, 2, 1);
  std::vector<net::Bytes> down(per_shard), up(per_shard);
  std::vector<std::uint16_t> psids(per_shard);
  net::PacketBuilder builder;
  for (std::size_t j = 0; j < per_shard; ++j) {
    const std::size_t g = base + j;
    psids[j] = subscriber_psid(g);
    const std::uint16_t port = apps::port_for_index(kParams, psids[j], 0);
    builder.reset();
    builder.ethernet(aftr_mac, core_mac)
        .ipv4(remote, subscriber_ipv4(g), net::IpProto::udp)
        .udp(9999, port)
        .min_frame_size(spec.frame_size)
        .payload_size(spec.frame_size > 42 ? spec.frame_size - 42 : 0);
    down[j] = builder.build();
    net::write_be16(down[j], 14 + 20 + 6, 0);  // UDP checksum off

    builder.reset();
    builder.ethernet(aftr_mac, core_mac)
        .ipv4(subscriber_ipv4(g), remote, net::IpProto::udp)
        .udp(port, 9999)
        .min_frame_size(spec.frame_size)
        .payload_size(spec.frame_size > 42 ? spec.frame_size - 42 : 0);
    up[j] = builder.build();
    net::write_be16(up[j], 14 + 20 + 6, 0);
    if (!net::encapsulate_ipv4_in_ipv6(up[j], subscriber_b4(g), aftr_addr())) {
      std::fprintf(stderr, "rfc8219: template encap failed\n");
      std::exit(1);
    }
  }

  const sim::DataRate rate = sim::DataRate::gbps(spec.rate_gbps);
  sim::ZipfDistribution zipf_down(per_shard, 1.0), zipf_up(per_shard, 1.0);

  Emitter down_emit(tb.sim(), "down"), up_emit(tb.sim(), "up");
  down_emit.templates = &down;
  down_emit.psids = &psids;
  down_emit.zipf = &zipf_down;
  down_emit.rng = sim::Rng::for_stream(1001, shard);
  down_emit.port_offset = 14 + 20 + 2;  // UDP destination port
  down_emit.gap = rate.serialization_time(spec.frame_size + 24);
  down_emit.stop_at = spec.duration;
  down_emit.inject_out_of_set = spec.churn;
  sim::LambdaHandler edge_in([&tb](net::PacketPtr p) {
    tb.module().inject(sfp::FlexSfpModule::edge_port, std::move(p));
  });
  down_emit.out = tb.edge_faults() != nullptr
                      ? static_cast<sim::PacketHandler*>(tb.edge_faults())
                      : &edge_in;

  up_emit.templates = &up;
  up_emit.psids = &psids;
  up_emit.zipf = &zipf_up;
  up_emit.rng = sim::Rng::for_stream(2002, shard);
  up_emit.port_offset = 14 + 40 + 20;  // inner UDP source port
  up_emit.gap = rate.serialization_time(spec.frame_size + 40 + 24);
  up_emit.stop_at = spec.duration;
  up_emit.inject_out_of_set = spec.churn;
  sim::LambdaHandler optical_in([&tb](net::PacketPtr p) {
    tb.module().inject(sfp::FlexSfpModule::optical_port, std::move(p));
  });
  up_emit.out = &optical_in;

  tb.sim().schedule_at(0, [&down_emit] { down_emit.emit(); });
  tb.sim().schedule_at(0, [&up_emit] { up_emit.emit(); });

  if (spec.churn) {
    // Lease churn riding on live traffic: every eighth of the run, one in
    // seven subscribers loses its binding (downstream turns unmappable) and
    // gets it back half a window later — insert/expire/re-add under fire.
    const sim::TimePs window = spec.duration / 8;
    for (int tick = 0; tick < 8; ++tick) {
      tb.sim().schedule_at(tick * window, [aftr, base, per_shard, tick] {
        for (std::size_t j = tick % 7; j < per_shard; j += 7) {
          const std::size_t g = base + j;
          (void)aftr->remove_binding(subscriber_ipv4(g), subscriber_psid(g));
        }
      });
      tb.sim().schedule_at(tick * window + window / 2,
                           [aftr, base, per_shard, tick] {
        for (std::size_t j = tick % 7; j < per_shard; j += 7) {
          const std::size_t g = base + j;
          (void)aftr->add_binding(subscriber_ipv4(g), subscriber_psid(g),
                                  kParams, subscriber_b4(g));
        }
      });
    }
  }

  const fabric::TestbedResult result = tb.run();
  return {result.metrics.with_label("shard", std::to_string(shard)),
          tb.optical_sink().latency(), tb.edge_sink().latency()};
}

TrialResult run_trial(const TrialSpec& spec) {
  std::vector<TrialResult> shards(kShards);
  (void)sim::run_lockstep_rounds(
      kShards, spec.workers, /*lookahead=*/0, sim::time_horizon,
      [&](std::size_t shard, sim::TimePs) {
        shards[shard] = run_shard(spec, shard);
        return sim::time_horizon;
      });
  TrialResult result;
  for (const TrialResult& shard : shards) result.merge(shard);  // fixed order
  return result;
}

/// RFC 2544 §26.1 binary search: halve the [passing, failing] rate bracket
/// a fixed number of steps, report the highest passing offered rate. A
/// fixed step count (not convergence-to-epsilon) keeps the trial sequence —
/// and therefore the figure — identical across runs and worker counts.
double search_throughput(TrialSpec spec, const char* label) {
  double lo = 0.0, hi = spec.rate_gbps;
  double best = 0.0;
  for (int step = 0; step < kSearchSteps; ++step) {
    const double mid = (lo + hi) / 2.0;
    spec.rate_gbps = mid;
    const TrialResult trial = run_trial(spec);
    const double loss = trial.worst_loss();
    const bool pass = loss <= kLossThreshold;
    std::printf("  %-14s step %d: %6.3f Gb/s -> loss %.5f %s\n", label,
                step + 1, mid, loss, pass ? "PASS" : "FAIL");
    if (pass) {
      best = mid;
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flexsfp;

  // Subscribers live in 198.18.0.0/15: 2^17 addresses x 64 PSIDs each.
  constexpr const char* usage = "[subscribers] [trial_us] [workers]";
  bench::max_args(argc, argv, 3, usage);
  TrialSpec spec;
  spec.subscribers = bench::positional_arg<std::size_t>(
      argc, argv, 1, spec.subscribers, 1, std::size_t{1} << 23, usage);
  spec.duration = bench::positional_arg<sim::TimePs>(
                      argc, argv, 2, 50, 1, 1'000'000'000, usage) *
                  1'000'000;
  spec.workers = bench::positional_arg<unsigned>(argc, argv, 3, spec.workers,
                                                 1, 1024, usage);
  if (spec.subscribers < kShards * kPsidsPerAddr) {
    spec.subscribers = kShards * kPsidsPerAddr;
  }
  spec.subscribers -= spec.subscribers % kShards;

  bench::title("RFC 8219 softwire benchmark — lw4o6 AFTR, " +
               std::to_string(spec.subscribers) + " subscribers, " +
               std::to_string(kShards) + " shards");

  bench::Figures figures;

  // --- binary-search throughput, 64 B and 1518 B IPv4 frames --------------
  spec.frame_size = 64;
  const double r64 = search_throughput(spec, "64B");
  spec.frame_size = 1518;
  const double r1518 = search_throughput(spec, "1518B");
  std::printf("throughput: %.3f Gb/s @ 64B, %.3f Gb/s @ 1518B (loss <= %g)\n",
              r64, r1518, kLossThreshold);

  // --- determinism audit: re-run + worker sweep must reproduce exactly ----
  spec.frame_size = 64;
  bool determinism_ok = search_throughput(spec, "64B rerun") == r64;
  for (const unsigned workers : {1u, 2u, 4u}) {
    TrialSpec wspec = spec;
    wspec.workers = workers;
    determinism_ok =
        determinism_ok &&
        search_throughput(wspec, ("64B w" + std::to_string(workers)).c_str()) ==
            r64;
  }
  std::printf("determinism: search figure %s across reruns and workers "
              "{1,2,4}\n",
              determinism_ok ? "identical" : "DIVERGED");

  // --- verification trial at the found rate: latency + PDV ----------------
  TrialSpec verify = spec;
  verify.rate_gbps = r64 > 0 ? r64 : 1.0;
  const TrialResult vr = run_trial(verify);
  // percentile() reports the containing bucket's representative value, which
  // can undershoot the exact min by a sub-bucket amount — clamp PDV at 0.
  const double pdv_down = std::max(
      0.0, sim::to_nanos(vr.lat_down.percentile(99.9) - vr.lat_down.min()));
  const double pdv_up = std::max(
      0.0, sim::to_nanos(vr.lat_up.percentile(99.9) - vr.lat_up.min()));
  std::printf(
      "at %.3f Gb/s: down p50 %.1f ns p99 %.1f ns PDV %.1f ns | up p50 %.1f "
      "ns p99 %.1f ns PDV %.1f ns\n",
      verify.rate_gbps, sim::to_nanos(vr.lat_down.percentile(50)),
      sim::to_nanos(vr.lat_down.percentile(99)), pdv_down,
      sim::to_nanos(vr.lat_up.percentile(50)),
      sim::to_nanos(vr.lat_up.percentile(99)), pdv_up);

  // --- churn trial: faults + lease expire/re-add + out-of-set ports -------
  TrialSpec churn = spec;
  churn.rate_gbps = (r64 > 0 ? r64 : 1.0) * 0.8;
  churn.churn = true;
  const TrialResult cr = run_trial(churn);
  // Zero black holes: every emitted (or fault-duplicated) packet is
  // delivered or counted at a named drop point — the fabric's own ledger,
  // read from the same merged snapshot.
  const fabric::FabricLedger ledger =
      fabric::FabricLedger::from_snapshot(cr.metrics);
  const bool ledger_ok = ledger.balanced();
  const std::uint64_t unmappable =
      cr.lwaftr_drops(apps::LwAftr::stat_unmappable_v4);
  const std::uint64_t pool_heap_fallbacks =
      cr.metrics.sum("pool.heap_fallbacks");
  std::printf(
      "churn @ %.3f Gb/s: sent %llu dup %llu, delivered %llu, faults %llu, "
      "queue %llu, app %llu (unmappable %llu, antispoof %llu) -> ledger %s; "
      "pool heap fallbacks %llu\n",
      churn.rate_gbps, (unsigned long long)ledger.sent,
      (unsigned long long)ledger.duplicated,
      (unsigned long long)ledger.delivered,
      (unsigned long long)ledger.fault_dropped,
      (unsigned long long)ledger.queue_drops,
      (unsigned long long)ledger.app_drops, (unsigned long long)unmappable,
      (unsigned long long)cr.lwaftr_drops(apps::LwAftr::stat_antispoof_dropped),
      ledger_ok ? "CLOSED" : "LEAKED",
      (unsigned long long)pool_heap_fallbacks);

  figures.emplace_back("throughput_gbps_64", r64);
  figures.emplace_back("throughput_gbps_1518", r1518);
  figures.emplace_back("determinism_ok", determinism_ok ? 1.0 : 0.0);
  figures.emplace_back("ledger_ok", ledger_ok ? 1.0 : 0.0);
  figures.emplace_back("verify_loss_64", vr.worst_loss());
  figures.emplace_back("latency_p50_ns_down",
                       sim::to_nanos(vr.lat_down.percentile(50)));
  figures.emplace_back("latency_p99_ns_down",
                       sim::to_nanos(vr.lat_down.percentile(99)));
  figures.emplace_back("pdv_ns_down", pdv_down);
  figures.emplace_back("latency_p50_ns_up",
                       sim::to_nanos(vr.lat_up.percentile(50)));
  figures.emplace_back("latency_p99_ns_up",
                       sim::to_nanos(vr.lat_up.percentile(99)));
  figures.emplace_back("pdv_ns_up", pdv_up);
  figures.emplace_back("churn_unmappable_drops", double(unmappable));
  figures.emplace_back("pool_heap_fallbacks", double(pool_heap_fallbacks));
  figures.emplace_back("subscribers", double(spec.subscribers));
  figures.emplace_back("shards", double(kShards));
  figures.emplace_back("search_steps", double(kSearchSteps));
  figures.emplace_back("loss_threshold", kLossThreshold);
  bench::write_bench_json("rfc8219", vr.metrics, figures);
  bench::note(
      "binary-search throughput per RFC 2544 §26 with RFC 8219's "
      "encapsulation-aware frame sizes; PDV = p99.9 - min per RFC 5481. The "
      "figure is the offered rate, so it is exact across reruns and worker "
      "counts by construction of the sharded merge.");
  return (determinism_ok && ledger_ok) ? 0 : 1;
}
