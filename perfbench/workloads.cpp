// The three workloads. Each builds its topology from public library parts,
// advances it in simulated-time windows (or whole replays for the lockstep
// engine), checks its outputs and hands main.cpp one Replay.
#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <optional>
#include <stdexcept>

#include "analysis/catalog.hpp"
#include "apps/nat.hpp"
#include "apps/softwire.hpp"
#include "fabric/fabric_testbed.hpp"
#include "layers.hpp"
#include "net/builder.hpp"
#include "net/checksum.hpp"
#include "net/parser.hpp"
#include "sfp/flexsfp.hpp"
#include "sim/fault_injector.hpp"

namespace perfbench {

namespace {

using namespace flexsfp;
using flexsfp::sim::operator""_us;
using flexsfp::sim::operator""_ms;

double seconds_since(std::int64_t start_ns) {
  return double(now_ns() - start_ns) * 1e-9;
}

/// Every n-th delivered frame is copied aside for the output checks.
constexpr std::uint64_t kSampleEvery = 4096;

/// Forwarding PpeApp wrapper of the traced run: every call goes to the
/// wrapped app, and process() runs inside a span whose kind `classify`
/// picks per frame. `check` sees each verdict after the span closed.
class TracedApp final : public ppe::PpeApp {
 public:
  using Classify = SpanKind (*)(const net::Packet&);
  using Check = std::function<void(const net::Packet&, ppe::Verdict)>;

  TracedApp(ppe::PpeAppPtr inner, Classify classify, Check check = {})
      : inner_(std::move(inner)),
        classify_(classify),
        check_(std::move(check)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] ppe::Verdict process(ppe::PacketContext& ctx) override {
    ppe::Verdict verdict;
    {
      const Span span(classify_(ctx.packet()));
      verdict = run_inner(*inner_, ctx);
    }
    if (check_) check_(ctx.packet(), verdict);
    return verdict;
  }

  /// Call the wrapped app the way ppe::Engine calls an app: through the
  /// burst entry point with one packet where PpeApp has one (an app's fast
  /// path may live only there), otherwise through process().
  template <class App>
  static ppe::Verdict run_inner(App& app, ppe::PacketContext& ctx) {
    if constexpr (requires(ppe::PacketContext* const* ctxs, ppe::Verdict* out) {
                    app.process_batch(ctxs, out, std::size_t{1});
                  }) {
      ppe::PacketContext* ctxs[1] = {&ctx};
      ppe::Verdict verdict = ppe::Verdict::drop;
      app.process_batch(ctxs, &verdict, 1);
      return verdict;
    } else {
      return app.process(ctx);
    }
  }
  [[nodiscard]] hw::ResourceUsage resource_usage(
      const hw::DatapathConfig& datapath) const override {
    return inner_->resource_usage(datapath);
  }
  [[nodiscard]] std::uint64_t pipeline_latency_cycles() const override {
    return inner_->pipeline_latency_cycles();
  }
  [[nodiscard]] ppe::StageProfile profile() const override {
    return inner_->profile();
  }
  [[nodiscard]] std::vector<ppe::StageProfile> stage_profiles()
      const override {
    return inner_->stage_profiles();
  }
  void visit_stages(
      const std::function<void(const PpeApp&)>& visit) const override {
    inner_->visit_stages(visit);
  }
  [[nodiscard]] net::Bytes serialize_config() const override {
    return inner_->serialize_config();
  }
  [[nodiscard]] std::vector<std::string> table_names() const override {
    return inner_->table_names();
  }
  bool table_insert(std::string_view table, std::uint64_t key,
                    std::uint64_t value) override {
    return inner_->table_insert(table, key, value);
  }
  bool table_erase(std::string_view table, std::uint64_t key) override {
    return inner_->table_erase(table, key);
  }
  [[nodiscard]] std::optional<std::uint64_t> table_lookup(
      std::string_view table, std::uint64_t key) const override {
    return inner_->table_lookup(table, key);
  }
  [[nodiscard]] std::vector<ppe::CounterSnapshot> counters() const override {
    return inner_->counters();
  }
  [[nodiscard]] PpeApp* find_stage(std::string_view stage_name) override {
    return inner_->find_stage(stage_name);
  }

 private:
  ppe::PpeAppPtr inner_;
  Classify classify_;
  Check check_;
};

SpanKind classify_nat(const net::Packet&) { return SpanKind::app_nat; }

/// An egress handler into `sink` that keeps every kSampleEvery-th frame in
/// `sampled`, wrapped in a sink span when traced.
std::function<void(net::PacketPtr)> sink_handler(
    fabric::Sink& sink, std::vector<net::Packet>& sampled,
    std::uint64_t& seen, bool traced) {
  if (traced) {
    return [&sink, &sampled, &seen](net::PacketPtr p) {
      const Span span(SpanKind::sink);
      if (++seen % kSampleEvery == 0) sampled.push_back(net::detach_frame(*p));
      sink.handle_packet(std::move(p));
    };
  }
  return [&sink, &sampled, &seen](net::PacketPtr p) {
    if (++seen % kSampleEvery == 0) sampled.push_back(net::detach_frame(*p));
    sink.handle_packet(std::move(p));
  };
}

/// A handler that injects into `port` of `module`, in an inject span when
/// traced.
std::unique_ptr<sim::LambdaHandler> inject_handler(sfp::FlexSfpModule& module,
                                                   int port, bool traced) {
  if (traced) {
    return std::make_unique<sim::LambdaHandler>(
        [&module, port](net::PacketPtr p) {
          const Span span(SpanKind::sfp_inject);
          module.inject(port, std::move(p));
        });
  }
  return std::make_unique<sim::LambdaHandler>(
      [&module, port](net::PacketPtr p) { module.inject(port, std::move(p)); });
}

/// Advance in `windows` simulated windows of `window` ps; every window after
/// the first `warmup` is one timed sample of host ns per offered packet.
/// `advance(t)` runs the topology up to t; `offered()` reads the packets
/// offered so far. The traced run counts allocations over the samples.
void run_windows(Replay& r, sim::TimePs window, std::size_t windows,
                 std::size_t warmup, bool traced,
                 const std::function<void(sim::TimePs)>& advance,
                 const std::function<std::uint64_t()>& offered) {
  std::uint64_t allocs_before = 0;
  for (std::size_t w = 0; w < windows; ++w) {
    if (w == warmup && traced) {
      allocs_before = counted_allocs();
      set_alloc_counting(true);
    }
    const std::uint64_t before = offered();
    const std::int64_t start = now_ns();
    advance(sim::TimePs(w + 1) * window);
    const std::int64_t elapsed = now_ns() - start;
    if (w < warmup) continue;
    const std::uint64_t pkts = offered() - before;
    if (pkts == 0) continue;
    r.samples_ns_per_pkt.push_back(double(elapsed) / double(pkts));
    r.steady_wall_s += double(elapsed) * 1e-9;
    r.steady_pkts += pkts;
  }
  if (traced) {
    set_alloc_counting(false);
    r.steady_allocs = counted_allocs() - allocs_before;
  }
}

/// The ledger equation's terms and the delivered bytes as figures; any
/// imbalance fails the packets it cannot account for.
void ledger_figures(Replay& r) {
  const fabric::FabricLedger ledger =
      fabric::FabricLedger::from_snapshot(r.snapshot);
  r.offered = ledger.injected();
  r.figures["sent"] = std::int64_t(ledger.sent);
  r.figures["duplicated"] = std::int64_t(ledger.duplicated);
  r.figures["delivered"] = std::int64_t(ledger.delivered);
  r.figures["delivered_bytes"] =
      std::int64_t(r.snapshot.sum("sink.received.bytes"));
  r.figures["fault_dropped"] = std::int64_t(ledger.fault_dropped);
  r.figures["queue_drops"] = std::int64_t(ledger.queue_drops);
  r.figures["dark_drops"] = std::int64_t(ledger.dark_drops);
  r.figures["app_drops"] = std::int64_t(ledger.app_drops);
  r.figures["control_punts"] = std::int64_t(ledger.control_punts);
  r.figures["crosspoint_drops"] = std::int64_t(ledger.crosspoint_drops);
  r.figures["unrouted"] = std::int64_t(ledger.unrouted);
  if (!ledger.balanced()) {
    const std::uint64_t in = ledger.injected(), out = ledger.accounted();
    r.fail(in > out ? in - out : out - in,
           "ledger does not close: injected " + std::to_string(in) +
               ", accounted " + std::to_string(out));
  }
}

/// True when the IPv4 header checksum and the TCP/UDP checksum of
/// `layer` are valid (a zero UDP checksum means "none").
bool checksums_valid(net::BytesView frame, const net::IpLayer& layer) {
  const net::Ipv4Header& ip = *layer.ipv4;
  if (net::internet_checksum(frame.subspan(layer.l3_offset, ip.size())) != 0) {
    return false;
  }
  if (ip.total_length < ip.size()) return false;
  const std::size_t l4_len = ip.total_length - ip.size();
  if (layer.l4_offset + l4_len > frame.size()) return false;
  if (layer.udp && net::read_be16(frame, layer.l4_offset + 6) == 0) return true;
  net::Bytes pseudo(12, 0);
  net::write_be32(pseudo, 0, ip.src.value());
  net::write_be32(pseudo, 4, ip.dst.value());
  pseudo[9] = ip.protocol;
  net::write_be16(pseudo, 10, static_cast<std::uint16_t>(l4_len));
  const std::uint32_t sum = net::checksum_partial(
      frame.subspan(layer.l4_offset, l4_len), net::checksum_partial(pseudo));
  return net::checksum_finish(sum) == 0;
}

void record_latency(Replay& r, const std::string& name,
                    const sim::LatencyHistogram& h) {
  r.figures[name + "_p50_ps"] = h.percentile(50);
  r.figures[name + "_p99_ps"] = h.percentile(99);
}

// --- nat_64b ------------------------------------------------------------------

// 64 B CBR at 10 Gb/s, edge to optical, through one StaticNat module with
// 1024 mappings covering every flow. Per-packet overhead dominates.
class Nat64b final : public Workload {
 public:
  explicit Nat64b(std::uint64_t seed) : seed_(seed) {}

  [[nodiscard]] double compute_probe_nominal_ns() const override {
    return 60000;
  }

  static constexpr sim::TimePs kWindow = 400_us;
  static constexpr std::size_t kWindows = 100;  // 40 ms simulated
  static constexpr std::size_t kWarmup = 10;
  static constexpr std::uint32_t kMappings = 1024;
  static constexpr std::uint32_t kOriginalBase = 0x0a000000;    // 10.0.0.0
  static constexpr std::uint32_t kTranslatedBase = 0xcb007100;  // 203.0.113.0

  [[nodiscard]] fabric::TrafficSpec spec() const {
    fabric::TrafficSpec spec;
    spec.rate = sim::DataRate::gbps(10);
    spec.arrivals = fabric::ArrivalProcess::cbr;
    spec.sizes = fabric::SizeDistribution::fixed;
    spec.fixed_size = 64;
    spec.flow_count = kMappings;
    spec.zipf_skew = 1.0;
    spec.src_base = net::Ipv4Address{kOriginalBase};
    spec.seed = sim::derive_stream_seed(seed_, 1);
    spec.duration = kWindow * sim::TimePs(kWindows);
    return spec;
  }

  [[nodiscard]] static ppe::PpeAppPtr make_nat() {
    auto nat = std::make_unique<apps::StaticNat>();
    // TrafficGen sources are src_base + rank, ranks 1..flow_count.
    for (std::uint32_t rank = 1; rank <= kMappings; ++rank) {
      nat->add_mapping(net::Ipv4Address{kOriginalBase + rank},
                       net::Ipv4Address{kTranslatedBase + rank});
    }
    return nat;
  }

  Replay replay(bool traced) override {
    Replay r;
    const std::int64_t setup_start = now_ns();
    sim::Simulation sim;
    ppe::PpeAppPtr app = make_nat();
    if (traced) app = std::make_unique<TracedApp>(std::move(app), classify_nat);
    sfp::FlexSfpConfig config;
    config.boot_at_start = false;
    sfp::FlexSfpModule module(sim, std::move(app), config);
    fabric::Sink sink(sim);
    std::vector<net::Packet> sampled;
    std::uint64_t seen = 0;
    module.set_egress_handler(sfp::FlexSfpModule::optical_port,
                              sink_handler(sink, sampled, seen, traced));
    const auto edge_in =
        inject_handler(module, sfp::FlexSfpModule::edge_port, traced);
    fabric::TrafficGen gen(sim, spec(), *edge_in);
    gen.start();
    r.setup_s = seconds_since(setup_start);

    run_windows(
        r, kWindow, kWindows, kWarmup, traced,
        [&sim](sim::TimePs t) { (void)sim.run_until(t); },
        [&gen] { return gen.emitted().packets(); });
    (void)sim.run();

    const std::int64_t report_start = now_ns();
    r.snapshot = sim.metrics().snapshot();
    r.snapshot_ms = double(now_ns() - report_start) * 1e-6;
    ledger_figures(r);
    record_latency(r, "latency", sink.latency());
    r.report_s = seconds_since(report_start);
    r.series = r.snapshot.size();
    r.events = sim.executed_events();
    r.simulated_ps = sim.now();

    std::uint64_t bad = 0;
    for (const net::Packet& frame : sampled) bad += frame_ok(frame, gen) ? 0 : 1;
    if (bad > 0) r.fail(bad, std::to_string(bad) + " sampled NAT frames wrong");
    if (sampled.empty()) r.fail(1, "no delivered NAT frame was sampled");
    return r;
  }

  /// The source was rewritten to its mapping and every other header field
  /// is the flow's; the IPv4 and L4 checksums are valid.
  static bool frame_ok(const net::Packet& frame, const fabric::TrafficGen& gen) {
    const net::ParsedPacket parsed = net::parse_packet(frame);
    if (!parsed.ok() || !parsed.is_ipv4()) return false;
    const net::Ipv4Header& ip = *parsed.outer.ipv4;
    const std::uint32_t rank = ip.src.value() - kTranslatedBase;
    if (rank < 1 || rank > kMappings) return false;
    const net::FiveTuple flow = gen.flow_tuple(rank);
    const auto tuple = parsed.five_tuple();
    if (!tuple || tuple->dst != flow.dst || tuple->src_port != flow.src_port ||
        tuple->dst_port != flow.dst_port || tuple->protocol != flow.protocol) {
      return false;
    }
    return checksums_valid(frame.data(), parsed.outer);
  }

  Microbench microbench() override {
    const std::vector<net::Bytes> frames = generated_frames(spec(), 100_us);
    Microbench m;
    m.make_release_ns = bench_make_release_ns(frames);
    m.parse_ns = bench_parse_ns(frames);
    m.gen_emit_ns = bench_traffic_gen_ns(spec());
    return m;
  }

  Figures expected() const override {
    return {{"sent", 568182},          {"duplicated", 0},
            {"delivered", 568182},     {"delivered_bytes", 36363648},
            {"fault_dropped", 0},      {"queue_drops", 0},
            {"dark_drops", 0},         {"app_drops", 0},
            {"control_punts", 0},      {"crosspoint_drops", 0},
            {"unrouted", 0},           {"latency_p50_ps", 369966},
            {"latency_p99_ps", 369966}};
  }

 private:
  std::uint64_t seed_;
};

// --- softwire_churn -----------------------------------------------------------

// Four lw4o6 AFTR modules, half-full softwire-edge binding tables (65,536
// subscribers), bidirectional IMIX with Zipf subscriber popularity, lease
// churn and edge faults. App tables and encap/decap byte moves dominate.
namespace sw {

constexpr std::size_t kShards = 4;
constexpr std::size_t kSubscribersPerShard = 16384;
constexpr apps::PsidParams kParams{6, 6};  // 64 PSIDs per address
constexpr std::size_t kPsidsPerAddr = 64;
// Per direction and module: the two-way-core PPE carries both directions
// on one 10 Gb/s bus, so this keeps it below saturation.
constexpr sim::DataRate kRate = sim::DataRate::gbps(4);
constexpr sim::TimePs kWindow = 400_us;
constexpr std::size_t kWindows = 100;  // 40 ms simulated
constexpr std::size_t kWarmup = 10;
constexpr sim::TimePs kDuration = kWindow * sim::TimePs(kWindows);
constexpr sim::TimePs kChurnTick = kDuration / 8;
constexpr std::size_t kChurnClasses = 7;
constexpr std::array<std::size_t, 3> kSizes = {64, 594, 1518};
constexpr std::size_t kEth = 14, kV4 = 20, kV6 = 40;
constexpr std::uint16_t kRemotePort = 9999;
constexpr std::uint16_t kVxlanPort = 4789;

net::Ipv6Address aftr_addr() {
  return *net::Ipv6Address::parse("2001:db8:ffff::1");
}
net::Ipv4Address subscriber_ipv4(std::size_t g) {
  return net::Ipv4Address{net::Ipv4Address::from_octets(198, 18, 0, 0).value() +
                          static_cast<std::uint32_t>(g / kPsidsPerAddr)};
}
std::uint16_t subscriber_psid(std::size_t g) {
  return static_cast<std::uint16_t>(g % kPsidsPerAddr);
}
net::Ipv6Address subscriber_b4(std::size_t g) {
  return net::Ipv6Address::from_u64_pair(0x20010db8'00000000ull,
                                         std::uint64_t(g) + 1);
}
/// Subscriber index of (address, port), or nullopt outside the population.
std::optional<std::size_t> subscriber_of(net::Ipv4Address addr,
                                         std::uint16_t port) {
  const std::uint32_t base = net::Ipv4Address::from_octets(198, 18, 0, 0).value();
  if (addr.value() < base || apps::port_excluded(kParams, port)) {
    return std::nullopt;
  }
  const std::size_t g = std::size_t(addr.value() - base) * kPsidsPerAddr +
                        apps::psid_of_port(kParams, port);
  if (g >= kShards * kSubscribersPerShard) return std::nullopt;
  return g;
}
const net::Ipv4Address kRemote = net::Ipv4Address::from_octets(192, 0, 2, 1);

/// The IPv4 frame of subscriber `g` with port `port` and `size` bytes:
/// downstream from the remote host to the subscriber, upstream the reverse.
/// UDP checksums are zero (legal over IPv4), so patching needs no L4 fixup.
net::Bytes v4_frame(bool downstream, std::size_t g, std::size_t size,
                    std::uint16_t port) {
  net::PacketBuilder builder;
  const net::MacAddress core_mac = net::MacAddress::from_u64(0x02000000aa01);
  const net::MacAddress aftr_mac = net::MacAddress::from_u64(0x02000000aa02);
  builder.ethernet(aftr_mac, core_mac)
      .ipv4(downstream ? kRemote : subscriber_ipv4(g),
            downstream ? subscriber_ipv4(g) : kRemote, net::IpProto::udp)
      .udp(downstream ? kRemotePort : port, downstream ? port : kRemotePort)
      .min_frame_size(size)
      .payload_size(size - (kEth + kV4 + 8));
  net::Bytes frame = builder.build();
  net::write_be16(frame, kEth + kV4 + 6, 0);
  return frame;
}

/// v4_frame(false, ...) encapsulated toward the AFTR from the subscriber's B4.
net::Bytes v6_frame(std::size_t g, std::size_t size, std::uint16_t port) {
  net::Bytes frame = v4_frame(false, g, size, port);
  if (!net::encapsulate_ipv4_in_ipv6(frame, subscriber_b4(g), aftr_addr())) {
    throw std::runtime_error("softwire template encapsulation failed");
  }
  return frame;
}

void write_ipv4_checksum(net::Bytes& frame, std::size_t l3) {
  net::write_be16(frame, l3 + 10, 0);
  net::write_be16(frame, l3 + 10,
                  net::internet_checksum(net::BytesView(frame).subspan(l3, kV4)));
}

/// One direction's CBR-paced emitter at kRate: a Zipf-chosen
/// subscriber, a 7:4:1 IMIX size, a random port of the subscriber's set,
/// patched into a per-size template.
struct Emitter {
  sim::Simulation* sim = nullptr;
  sim::PacketHandler* out = nullptr;
  bool upstream = false;
  std::size_t base = 0;  // subscriber index of this shard's first lease
  std::array<net::Bytes, kSizes.size()> templates;
  const sim::ZipfDistribution* zipf = nullptr;
  sim::Rng rng{1};
  obs::MetricId emitted_packets;
  obs::MetricId emitted_bytes;

  void build_templates() {
    for (std::size_t i = 0; i < kSizes.size(); ++i) {
      const std::uint16_t port = apps::port_for_index(kParams, 0, 0);
      templates[i] = upstream ? v6_frame(base, kSizes[i], port)
                              : v4_frame(true, base, kSizes[i], port);
    }
  }

  void emit() {
    if (sim->now() >= kDuration) return;
    const std::size_t g = base + zipf->sample(rng) - 1;
    const std::uint64_t pick = rng.uniform(0, 11);
    const std::size_t size_index = pick < 7 ? 0 : pick < 11 ? 1 : 2;
    auto index = static_cast<std::uint32_t>(
        rng.uniform(0, apps::port_set_size(kParams) - 1));
    // The parser reads UDP/4789 as VXLAN, so that port would arrive as a
    // malformed frame; the subscriber uses the next port of its set.
    if (apps::port_for_index(kParams, subscriber_psid(g), index) == kVxlanPort) {
      index = (index + 1) % apps::port_set_size(kParams);
    }
    const auto port = apps::port_for_index(kParams, subscriber_psid(g), index);
    net::PacketPtr packet = sim->packet_pool().make();
    net::Bytes& frame = packet->data();
    frame = templates[size_index];
    if (upstream) {
      const net::Ipv6Address b4 = subscriber_b4(g);
      std::copy(b4.octets().begin(), b4.octets().end(),
                frame.begin() + kEth + 8);
      net::write_be32(frame, kEth + kV6 + 12, subscriber_ipv4(g).value());
      net::write_be16(frame, kEth + kV6 + kV4, port);
      write_ipv4_checksum(frame, kEth + kV6);
    } else {
      net::write_be32(frame, kEth + 16, subscriber_ipv4(g).value());
      net::write_be16(frame, kEth + kV4 + 2, port);
      write_ipv4_checksum(frame, kEth);
    }
    packet->set_id(sim->next_packet_id());
    packet->set_created_time_ps(sim->now());
    sim->metrics().add(emitted_packets);
    sim->metrics().add(emitted_bytes, frame.size());
    const std::size_t wire = packet->wire_size();
    out->handle_packet(std::move(packet));
    sim->schedule_in(kRate.serialization_time(wire), [this] { emit(); });
  }
};

/// The apps::LwAftr of the catalogued softwire-edge design, with misses
/// punted to the control plane so the benchmark can check every one.
std::unique_ptr<apps::LwAftr> make_aftr() {
  const analysis::DeployableDesign* design =
      analysis::find_design("softwire-edge");
  if (design == nullptr) throw std::runtime_error("softwire-edge not catalogued");
  const ppe::PpeAppPtr built = design->build();
  const auto* catalogued = dynamic_cast<const apps::LwAftr*>(built.get());
  if (catalogued == nullptr) {
    throw std::runtime_error("softwire-edge is not an LwAftr");
  }
  apps::LwAftrConfig config = catalogued->config();
  config.miss_action = apps::SoftwireMissAction::punt;
  return std::make_unique<apps::LwAftr>(config);
}

/// Punts reach the control plane one pipeline drain after the app's miss,
/// so a miss just before a re-add is seen just after it.
constexpr sim::TimePs kMissSlack = 1_us;

/// True when subscriber `g` of a shard starting at `base` is a lease the
/// churn had removed at most kMissSlack before simulated time `now`.
bool churned_out(std::size_t g, std::size_t base, sim::TimePs now) {
  const auto tick = static_cast<std::size_t>(now / kChurnTick);
  return (g - base) % kChurnClasses == tick % kChurnClasses &&
         now - sim::TimePs(tick) * kChurnTick < kChurnTick / 2 + kMissSlack;
}

struct Shard {
  std::size_t index = 0;
  std::size_t base = 0;
  sim::Simulation sim;
  apps::LwAftr* aftr = nullptr;
  std::unique_ptr<sfp::FlexSfpModule> module;
  std::unique_ptr<fabric::Sink> down_sink;  // optical side: encapsulated
  std::unique_ptr<fabric::Sink> up_sink;    // edge side: decapsulated
  std::vector<net::Packet> down_sampled, up_sampled;
  std::uint64_t down_seen = 0, up_seen = 0;
  std::unique_ptr<sim::LambdaHandler> edge_in, optical_in;
  std::unique_ptr<sim::FaultInjector> edge_faults;
  Emitter down, up;
  std::uint64_t bad_misses = 0;  // punts or drops of a lease not churned out
};

/// Lease of the frame's inner (upstream) or outer (downstream) IPv4 flow.
std::optional<std::size_t> lease_of(const net::Packet& frame, bool upstream) {
  const net::Bytes& b = frame.data();
  const std::size_t l3 = upstream ? kEth + kV6 : kEth;
  if (b.size() < l3 + kV4 + 4) return std::nullopt;
  const net::Ipv4Address addr{net::read_be32(b, l3 + (upstream ? 12 : 16))};
  return subscriber_of(addr, net::read_be16(b, l3 + kV4 + (upstream ? 0 : 2)));
}

}  // namespace sw

SpanKind classify_softwire(const net::Packet& packet) {
  return net::read_be16(packet.data(), 12) == 0x86dd
             ? SpanKind::app_softwire_up
             : SpanKind::app_softwire_down;
}

class SoftwireChurn final : public Workload {
 public:
  explicit SoftwireChurn(std::uint64_t seed)
      : seed_(seed), zipf_(sw::kSubscribersPerShard, 1.0) {}

  [[nodiscard]] double compute_probe_nominal_ns() const override {
    return 60000;
  }

  Replay replay(bool traced) override {
    using namespace sw;
    Replay r;
    std::array<std::unique_ptr<Shard>, kShards> shards;
    double template_s = 0;
    const std::int64_t setup_start = now_ns();
    for (std::size_t s = 0; s < kShards; ++s) {
      shards[s] = std::make_unique<Shard>();
      template_s += build_shard(*shards[s], s, traced);
    }
    r.setup_s = seconds_since(setup_start) - template_s;

    const auto offered = [&shards] {
      std::uint64_t total = 0;
      for (const auto& sh : shards) {
        total += sh->sim.metrics().value(sh->down.emitted_packets) +
                 sh->sim.metrics().value(sh->up.emitted_packets) +
                 sh->edge_faults->tally().duplicated;
      }
      return total;
    };
    run_windows(
        r, kWindow, kWindows, kWarmup, traced,
        [&shards](sim::TimePs t) {
          for (auto& sh : shards) (void)sh->sim.run_until(t);
        },
        offered);
    for (auto& sh : shards) (void)sh->sim.run();

    const std::int64_t report_start = now_ns();
    sim::LatencyHistogram down_latency, up_latency;
    for (auto& sh : shards) {
      r.snapshot.merge(sh->sim.metrics().snapshot().with_label(
          "shard", std::to_string(sh->index)));
      down_latency.merge(sh->down_sink->latency());
      up_latency.merge(sh->up_sink->latency());
    }
    r.snapshot_ms = double(now_ns() - report_start) * 1e-6;
    ledger_figures(r);
    record_latency(r, "latency_down", down_latency);
    record_latency(r, "latency_up", up_latency);
    r.report_s = seconds_since(report_start);
    r.series = r.snapshot.size();

    for (auto& sh : shards) {
      r.events += sh->sim.executed_events();
      r.simulated_ps = std::max(r.simulated_ps, sh->sim.now());
      check_shard(r, *sh);
    }
    r.figures["encapsulated"] = std::int64_t(r.encapsulated);
    r.figures["unmappable"] = std::int64_t(r.unmappable);
    return r;
  }

  Microbench microbench() override {
    using namespace sw;
    Microbench m;
    std::vector<net::Bytes> frames;
    {
      const auto shard = std::make_unique<Shard>();
      (void)build_shard(*shard, 0, false);
      sim::LambdaHandler keep([&frames](net::PacketPtr p) {
        frames.push_back(p->data());
      });
      for (Emitter* e : {&shard->down, &shard->up}) {
        e->out = &keep;
        for (int i = 0; i < 512; ++i) e->emit();
      }
    }
    m.make_release_ns = bench_make_release_ns(frames);
    m.parse_ns = bench_parse_ns(frames);
    m.gen_emit_ns = emitter_ns();
    return m;
  }

  Figures expected() const override {
    return {{"sent", 395784},           {"duplicated", 436},
            {"delivered", 364286},      {"delivered_bytes", 139291842},
            {"fault_dropped", 2070},    {"queue_drops", 0},
            {"dark_drops", 0},          {"app_drops", 14176},
            {"control_punts", 15688},   {"crosspoint_drops", 0},
            {"unrouted", 0},            {"encapsulated", 190058},
            {"unmappable", 15688},      {"latency_down_p50_ps", 959573},
            {"latency_down_p99_ps", 3227608}, {"latency_up_p50_ps", 842626},
            {"latency_up_p99_ps", 3227608}};
  }

 private:
  /// Build shard `s` into `sh`; returns the seconds spent on the emitters'
  /// frame templates, which set-up time excludes.
  double build_shard(sw::Shard& sh, std::size_t s, bool traced) {
    using namespace sw;
    sh.index = s;
    sh.base = s * kSubscribersPerShard;
    auto aftr = make_aftr();
    sh.aftr = aftr.get();
    for (std::size_t j = 0; j < kSubscribersPerShard; ++j) {
      if (!add(sh, sh.base + j, traced)) {
        throw std::runtime_error("softwire binding rejected");
      }
    }
    ppe::PpeAppPtr app = std::move(aftr);
    if (traced) {
      app = std::make_unique<TracedApp>(
          std::move(app), classify_softwire,
          [&sh](const net::Packet& p, ppe::Verdict v) {
            // Upstream drops are anti-spoof misses of a removed lease.
            if (v != ppe::Verdict::drop || classify_softwire(p) !=
                                               SpanKind::app_softwire_up) {
              return;
            }
            const auto g = lease_of(p, true);
            if (!g || !churned_out(*g, sh.base, sh.sim.now())) ++sh.bad_misses;
          });
    }
    sfp::FlexSfpConfig config;
    config.boot_at_start = false;
    config.shell.kind = sfp::ShellKind::two_way_core;
    sh.module = std::make_unique<sfp::FlexSfpModule>(sh.sim, std::move(app),
                                                     config);
    sh.down_sink = std::make_unique<fabric::Sink>(sh.sim);
    sh.up_sink = std::make_unique<fabric::Sink>(sh.sim);
    sh.module->set_egress_handler(
        sfp::FlexSfpModule::optical_port,
        sink_handler(*sh.down_sink, sh.down_sampled, sh.down_seen, traced));
    sh.module->set_egress_handler(
        sfp::FlexSfpModule::edge_port,
        sink_handler(*sh.up_sink, sh.up_sampled, sh.up_seen, traced));
    // Downstream misses arrive here: each must be a lease churned out now.
    sh.module->shell().set_control_rx([&sh](net::PacketPtr p) {
      const auto g = lease_of(*p, false);
      if (!g || !churned_out(*g, sh.base, sh.sim.now())) ++sh.bad_misses;
    });
    sh.edge_in = inject_handler(*sh.module, sfp::FlexSfpModule::edge_port, traced);
    sh.optical_in =
        inject_handler(*sh.module, sfp::FlexSfpModule::optical_port, traced);
    sim::FaultSpec faults;
    faults.drop_prob = 0.01;
    faults.duplicate_prob = 0.002;
    faults.reorder_prob = 0.02;
    faults.seed = sim::derive_stream_seed(seed_, 100 + s);
    sh.edge_faults = std::make_unique<sim::FaultInjector>(
        sh.sim, faults, *sh.edge_in, "fault.edge");

    const std::int64_t template_start = now_ns();
    init_emitter(sh.down, sh, false, sh.edge_faults.get());
    init_emitter(sh.up, sh, true, sh.optical_in.get());
    const double template_s = seconds_since(template_start);

    for (std::size_t tick = 0; tick < 8; ++tick) {
      const sim::TimePs at = sim::TimePs(tick) * kChurnTick;
      sh.sim.schedule_at(at, [this, &sh, tick, traced] {
        for (std::size_t j = tick % kChurnClasses; j < kSubscribersPerShard;
             j += kChurnClasses) {
          remove(sh, sh.base + j, traced);
        }
      });
      sh.sim.schedule_at(at + kChurnTick / 2, [this, &sh, tick, traced] {
        for (std::size_t j = tick % kChurnClasses; j < kSubscribersPerShard;
             j += kChurnClasses) {
          (void)add(sh, sh.base + j, traced);
        }
      });
    }
    sh.sim.schedule_at(0, [&sh] { sh.down.emit(); });
    sh.sim.schedule_at(0, [&sh] { sh.up.emit(); });
    return template_s;
  }

  static bool add(sw::Shard& sh, std::size_t g, bool traced) {
    using namespace sw;
    std::optional<Span> span;
    if (traced) span.emplace(SpanKind::add_binding);
    return sh.aftr->add_binding(subscriber_ipv4(g), subscriber_psid(g), kParams,
                                subscriber_b4(g));
  }
  static void remove(sw::Shard& sh, std::size_t g, bool traced) {
    using namespace sw;
    std::optional<Span> span;
    if (traced) span.emplace(SpanKind::remove_binding);
    (void)sh.aftr->remove_binding(subscriber_ipv4(g), subscriber_psid(g));
  }

  void init_emitter(sw::Emitter& e, sw::Shard& sh, bool upstream,
                    sim::PacketHandler* out) {
    e.sim = &sh.sim;
    e.out = out;
    e.upstream = upstream;
    e.base = sh.base;
    e.zipf = &zipf_;
    e.rng = sim::Rng::for_stream(seed_, (upstream ? 200 : 300) + sh.index);
    const obs::Labels labels{{"gen", upstream ? "softwire_up" : "softwire_down"}};
    e.emitted_packets = sh.sim.metrics().counter("gen.emitted.packets", labels);
    e.emitted_bytes = sh.sim.metrics().counter("gen.emitted.bytes", labels);
    e.build_templates();
  }

  void check_shard(Replay& r, sw::Shard& sh) {
    using namespace sw;
    const apps::LwAftr& aftr = *sh.aftr;
    r.encapsulated += aftr.stat_packets(apps::LwAftr::stat_encapsulated);
    r.unmappable += aftr.stat_packets(apps::LwAftr::stat_unmappable_v4);
    const std::string shard = "softwire shard " + std::to_string(sh.index);
    if (sh.bad_misses > 0) {
      r.fail(sh.bad_misses, shard + ": misses on leases that were not churned out");
    }
    // Every app drop must be an upstream anti-spoof miss (a removed lease);
    // the traced run checks each one against the churn schedule.
    const std::uint64_t antispoof =
        aftr.stat_packets(apps::LwAftr::stat_antispoof_dropped);
    const std::uint64_t app_drops = sh.module->shell().engine().dropped_by_app();
    if (app_drops != antispoof) {
      r.fail(app_drops > antispoof ? app_drops - antispoof : antispoof - app_drops,
             shard + ": app drops that are not anti-spoof misses");
    }
    std::uint64_t bad = 0;
    for (const net::Packet& frame : sh.down_sampled) bad += down_ok(frame) ? 0 : 1;
    for (const net::Packet& frame : sh.up_sampled) bad += up_ok(frame) ? 0 : 1;
    if (bad > 0) r.fail(bad, shard + ": " + std::to_string(bad) + " sampled frames wrong");
    if (sh.down_sampled.empty() || sh.up_sampled.empty()) {
      r.fail(1, shard + ": a direction delivered no sampled frame");
    }
  }

  /// Downstream: the outer IPv6 destination is the subscriber's B4 and the
  /// inner frame is the one sent.
  static bool down_ok(const net::Packet& frame) {
    using namespace sw;
    const net::Bytes& b = frame.data();
    if (b.size() < kEth + kV6 + kV4 + 8 || net::read_be16(b, 12) != 0x86dd) {
      return false;
    }
    const auto ip6 = net::Ipv6Header::parse(b, kEth);
    if (!ip6 || ip6->src != aftr_addr()) return false;
    const net::Ipv4Address dst{net::read_be32(b, kEth + kV6 + 16)};
    const std::uint16_t port = net::read_be16(b, kEth + kV6 + kV4 + 2);
    const auto g = subscriber_of(dst, port);
    if (!g || ip6->dst != subscriber_b4(*g)) return false;
    const net::Bytes sent = v4_frame(true, *g, b.size() - kV6, port);
    return std::equal(sent.begin() + kEth, sent.end(), b.begin() + kEth + kV6,
                      b.end());
  }

  /// Upstream: the decapsulated frame equals the IPv4 frame that was sent.
  static bool up_ok(const net::Packet& frame) {
    using namespace sw;
    const net::Bytes& b = frame.data();
    if (b.size() < kEth + kV4 + 8) return false;
    const net::Ipv4Address src{net::read_be32(b, kEth + 12)};
    const std::uint16_t port = net::read_be16(b, kEth + kV4);
    const auto lease = subscriber_of(src, port);
    return lease && b == v4_frame(false, *lease, b.size(), port);
  }

  /// Host ns per frame of one emitter running into a dropping handler.
  double emitter_ns() {
    using namespace sw;
    const auto shard = std::make_unique<Shard>();
    sim::LambdaHandler drop([](net::PacketPtr) {});
    init_emitter(shard->down, *shard, false, &drop);
    init_emitter(shard->up, *shard, true, &drop);
    shard->sim.schedule_at(0, [s = shard.get()] { s->down.emit(); });
    shard->sim.schedule_at(0, [s = shard.get()] { s->up.emit(); });
    const std::int64_t start = now_ns();
    (void)shard->sim.run_until(kDuration / 4);
    const double elapsed = double(now_ns() - start);
    const std::uint64_t emitted =
        shard->sim.metrics().value(shard->down.emitted_packets) +
        shard->sim.metrics().value(shard->up.emitted_packets);
    return emitted > 0 ? elapsed / double(emitted) : 0.0;
  }

  std::uint64_t seed_;
  sim::ZipfDistribution zipf_;
};

// --- fabric_incast ------------------------------------------------------------

// Four modules behind the crosspoint crossbar, all sending to module 0,
// run through the lockstep engine at two workers. Lockstep rounds, the
// cross-world frame copies, crossbar arbitration and the drop terms
// dominate; app work is a table miss.
class FabricIncast final : public Workload {
 public:
  explicit FabricIncast(std::uint64_t seed) : seed_(seed) {}

  static constexpr unsigned kWorkers = 2;

  [[nodiscard]] fabric::Topology topology() const {
    fabric::Topology topo;
    topo.modules = 4;
    topo.targets = {0, 0, 0, 0};
    topo.crosspoint_capacity = 16;
    topo.base_seed = sim::derive_stream_seed(seed_, 3);
    fabric::TrafficSpec& spec = topo.traffic_prototype;
    spec.rate = sim::DataRate::gbps(4);
    spec.arrivals = fabric::ArrivalProcess::poisson;
    spec.sizes = fabric::SizeDistribution::uniform;
    spec.min_size = 64;
    spec.max_size = 1518;
    spec.seed = sim::derive_stream_seed(seed_, 4);
    spec.duration = 2_ms;
    sim::FaultSpec faults;
    faults.drop_prob = 0.02;
    faults.duplicate_prob = 0.01;
    faults.seed = sim::derive_stream_seed(seed_, 5);
    topo.link_faults = faults;
    return topo;
  }

  static fabric::AppFactory factory(bool traced) {
    if (traced) {
      return [] {
        return std::make_unique<TracedApp>(std::make_unique<apps::StaticNat>(),
                                           classify_nat);
      };
    }
    return [] { return std::make_unique<apps::StaticNat>(); };
  }

  Replay replay(bool traced) override {
    Replay r;
    // Set-up: the four module rigs and the crossbar, as the single-clock
    // engine builds them (the lockstep engine builds the same rigs inside
    // run(), where they cannot be timed apart).
    {
      const std::int64_t setup_start = now_ns();
      const fabric::FabricTestbed built(topology(), factory(traced));
      r.setup_s = seconds_since(setup_start);
    }
    fabric::FabricParallelTestbed testbed(topology(), factory(traced));
    const std::uint64_t idle = traced ? idle_allocs() : 0;
    const std::uint64_t allocs_before = counted_allocs();
    if (traced) set_alloc_counting(true);
    const fabric::FabricRunResult result = testbed.run(kWorkers);
    if (traced) {
      set_alloc_counting(false);
      const std::uint64_t run_allocs = counted_allocs() - allocs_before;
      r.steady_allocs = run_allocs > idle ? run_allocs - idle : 0;
    }
    r.snapshot = result.metrics;
    ledger_figures(r);
    r.report_s = remerge_seconds(r, topology().modules);
    r.snapshot_ms = r.report_s * 1e3;
    r.figures["latency_p50_ps"] = std::llround(result.modules[0].latency_p50_ns * 1e3);
    r.figures["latency_p99_ps"] = std::llround(result.modules[0].latency_p99_ns * 1e3);
    r.series = r.snapshot.size();
    r.events = result.events;
    r.rounds = result.rounds;
    r.simulated_ps = result.duration;
    r.steady_wall_s = result.wall_seconds;
    r.steady_pkts = r.offered;
    if (r.offered > 0) {
      r.samples_ns_per_pkt.push_back(result.wall_seconds * 1e9 / double(r.offered));
    }
    for (std::size_t i = 1; i < result.modules.size(); ++i) {
      if (result.modules[i].received_packets != 0) {
        r.fail(result.modules[i].received_packets,
               "module " + std::to_string(i) + " received incast traffic");
      }
    }
    return r;
  }

  [[nodiscard]] bool lockstep() const override { return true; }
  [[nodiscard]] double compute_probe_nominal_ns() const override {
    return 75000;
  }

  void once_checks(Replay& first) override {
    fabric::FabricParallelTestbed testbed(topology(), factory(false));
    const fabric::FabricRunResult oracle = testbed.run(1);
    if (!(oracle.metrics == first.snapshot)) {
      first.fail(1, "merged snapshot at 2 workers differs from 1 worker");
    }
  }

  Microbench microbench() override {
    const fabric::TrafficSpec spec = topology().traffic_for(0);
    const std::vector<net::Bytes> frames = generated_frames(spec, 200_us);
    Microbench m;
    m.make_release_ns = bench_make_release_ns(frames);
    m.parse_ns = bench_parse_ns(frames);
    m.gen_emit_ns = bench_traffic_gen_ns(spec);
    return m;
  }

  Figures expected() const override {
    return {{"sent", 4884},             {"duplicated", 59},
            {"delivered", 2740},        {"delivered_bytes", 2499230},
            {"fault_dropped", 90},      {"queue_drops", 0},
            {"dark_drops", 0},          {"app_drops", 0},
            {"control_punts", 0},       {"crosspoint_drops", 2113},
            {"unrouted", 0},            {"latency_p50_ps", 51641740},
            {"latency_p99_ps", 58809026}};
  }

 private:
  /// Allocations of a replay without traffic: world construction and
  /// result collection, which the traced run subtracts from its count.
  std::uint64_t idle_allocs() const {
    fabric::Topology idle = topology();
    idle.traffic_prototype.duration = 0;
    fabric::FabricParallelTestbed testbed(idle, factory(true));
    const std::uint64_t before = counted_allocs();
    set_alloc_counting(true);
    (void)testbed.run(kWorkers);
    set_alloc_counting(false);
    return counted_allocs() - before;
  }

  /// Host seconds to merge the per-world snapshots of `merged` (split back
  /// apart untimed) in world order and read the ledger from the result —
  /// the collection work the lockstep engine does after its last round.
  static double remerge_seconds(Replay& r, std::size_t modules) {
    std::vector<obs::MetricSnapshot> worlds(modules + 1);
    for (obs::MetricSample sample : r.snapshot.samples()) {
      const auto label = std::find_if(
          sample.labels.begin(), sample.labels.end(),
          [](const auto& kv) { return kv.first == "shard"; });
      if (label == sample.labels.end()) continue;
      const std::size_t world =
          label->second == "xbar" ? modules : std::stoul(label->second);
      sample.labels.erase(label);
      worlds.at(world).add_sample(std::move(sample));
    }
    const std::int64_t start = now_ns();
    obs::MetricSnapshot out;
    for (std::size_t w = 0; w <= modules; ++w) {
      out.merge(worlds[w].with_label(
          "shard", w == modules ? std::string("xbar") : std::to_string(w)));
    }
    const fabric::FabricLedger ledger = fabric::FabricLedger::from_snapshot(out);
    const double seconds = seconds_since(start);
    if (!(out == r.snapshot) || ledger.injected() != r.offered) {
      r.fail(1, "re-merged fabric snapshot differs from the engine's");
    }
    return seconds;
  }

  std::uint64_t seed_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "nat_64b") return std::make_unique<Nat64b>(seed);
  if (name == "softwire_churn") return std::make_unique<SoftwireChurn>(seed);
  if (name == "fabric_incast") return std::make_unique<FabricIncast>(seed);
  return nullptr;
}

}  // namespace perfbench
