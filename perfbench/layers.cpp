// Layer microbenches and the per-layer report: isolated ns per call of the
// library functions on a workload's path, combined with the call counts the
// replay's registry snapshot holds into a host-cost ledger per simulated
// packet, whose sum against the measured ns_per_pkt_p50 is ledger.coverage.
#include "layers.hpp"

#include <algorithm>

#include "net/parser.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

namespace {

using namespace flexsfp;

/// Median of three timings of `body`, each returning host ns per call.
template <class Body>
double median_of_3(Body body) {
  std::array<double, 3> t{body(), body(), body()};
  std::sort(t.begin(), t.end());
  return t[1];
}

/// Keeps `value` observable so the timed loop is not optimized away.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

double per_call(std::int64_t start, std::uint64_t calls) {
  return calls > 0 ? double(now_ns() - start) / double(calls) : 0.0;
}

/// Simulation::schedule_at + step at `sample`'s mean per-simulation queue
/// high watermark, with timestamps spread over the simulated time that
/// many of its events span. Each executed event schedules its successor,
/// so the queue holds that many events throughout and every step is one
/// pop + one push.
double bench_push_pop_ns(const Replay& sample) {
  std::uint64_t sum = 0, queues = 0;
  for (const obs::MetricSample& s : sample.snapshot.samples()) {
    if (s.name != "sim.queue.pending_high_watermark") continue;
    sum += s.value;
    ++queues;
  }
  const std::uint64_t pending = std::max<std::uint64_t>(
      sum / std::max<std::uint64_t>(queues, 1), 1);
  const double gap_ps = double(sample.simulated_ps) * double(queues) /
                        double(std::max<std::uint64_t>(sample.events, 1));
  const auto spread_ps = std::max<sim::TimePs>(
      sim::TimePs(gap_ps * double(pending)), 1);
  struct Chain {
    sim::Simulation sim;
    std::vector<sim::TimePs> deltas;
    std::size_t next = 0;
    std::uint64_t left = 0;
    void fire() {
      if (left == 0) return;
      --left;
      const sim::TimePs delta = deltas[next++ & (deltas.size() - 1)];
      sim.schedule_in(delta, [this] { fire(); });
    }
  };
  return median_of_3([&] {
    auto chain = std::make_unique<Chain>();
    sim::Rng rng(7);
    chain->deltas.resize(std::size_t{1} << 16);
    for (auto& d : chain->deltas) {
      d = sim::TimePs(rng.uniform(0, std::uint64_t(spread_ps)));
    }
    constexpr std::uint64_t kEvents = 1'000'000;
    chain->left = kEvents;
    for (std::uint64_t i = 0; i < pending; ++i) chain->fire();
    const std::uint64_t before = chain->sim.executed_events();
    const std::int64_t start = now_ns();
    (void)chain->sim.run();
    return per_call(start, chain->sim.executed_events() - before);
  });
}

}  // namespace

std::vector<net::Bytes> generated_frames(fabric::TrafficSpec spec,
                                         sim::TimePs duration) {
  std::vector<net::Bytes> frames;
  sim::Simulation sim;
  sim::LambdaHandler keep([&frames](net::PacketPtr p) {
    frames.push_back(p->data());
  });
  spec.duration = duration;
  fabric::TrafficGen gen(sim, spec, keep);
  gen.start();
  (void)sim.run();
  return frames;
}

double bench_make_release_ns(const std::vector<net::Bytes>& frames) {
  if (frames.empty()) return 0;
  return median_of_3([&] {
    net::PacketPool pool;
    constexpr std::uint64_t kCalls = 1'000'000;
    const std::int64_t start = now_ns();
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      const net::Bytes& frame = frames[i % frames.size()];
      net::PacketPtr packet = pool.make();
      packet->data().assign(frame.begin(), frame.end());
      keep(*packet);
    }
    return per_call(start, kCalls);
  });
}

double bench_parse_ns(const std::vector<net::Bytes>& frames) {
  if (frames.empty()) return 0;
  return median_of_3([&] {
    constexpr std::uint64_t kCalls = 500'000;
    const std::int64_t start = now_ns();
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      const net::ParsedPacket parsed =
          net::parse_packet(frames[i % frames.size()]);
      keep(parsed);
    }
    return per_call(start, kCalls);
  });
}

double bench_traffic_gen_ns(fabric::TrafficSpec spec) {
  // About 300k frames at the spec's mean frame size.
  const std::size_t mean_size =
      spec.sizes == fabric::SizeDistribution::fixed
          ? spec.fixed_size
          : spec.sizes == fabric::SizeDistribution::uniform
                ? (spec.min_size + spec.max_size) / 2
                : 354;
  spec.start = 0;
  spec.duration = 300'000 * spec.rate.serialization_time(mean_size + 24);
  return median_of_3([&] {
    auto sim = std::make_unique<sim::Simulation>();
    sim::LambdaHandler drop([](net::PacketPtr) {});
    fabric::TrafficGen gen(*sim, spec, drop);
    gen.start();
    const std::int64_t start = now_ns();
    (void)sim->run();
    return per_call(start, gen.emitted().packets());
  });
}

std::vector<LayerMetric> layer_metrics(
    const LayerInputs& in,
    std::vector<std::pair<std::string, double>>& ledger_rows) {
  const Replay& r = in.untraced;
  const obs::MetricSnapshot& snap = r.snapshot;
  const double pkts = double(std::max<std::uint64_t>(r.offered, 1));
  const double sent = double(r.figures.at("sent"));
  const auto span = [&in](SpanKind kind) -> const SpanTotals& {
    return in.spans[static_cast<std::size_t>(kind)];
  };
  // Self ns per call net of the clock reads the span itself adds.
  const auto ns_per_call = [&in](const SpanTotals& s) {
    return s.calls > 0 ? std::max(s.self_ns_per_call() - in.span_overhead_ns, 0.0)
                       : 0.0;
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };

  SpanTotals app;
  for (SpanKind kind : {SpanKind::app_nat, SpanKind::app_softwire_down,
                        SpanKind::app_softwire_up}) {
    app.calls += span(kind).calls;
    app.total_ns += span(kind).total_ns;
    app.child_ns += span(kind).child_ns;
  }
  const double app_calls = double(snap.sum("engine.forwarded") +
                                  snap.sum("engine.app_drops") +
                                  snap.sum("engine.punted"));
  const double push_pop_ns = bench_push_pop_ns(r);
  // Churn writes per replay: each removed lease is added back once.
  const double churn_removes =
      ratio(double(span(SpanKind::remove_binding).calls),
            double(in.traced_replays));

  // Host ns per simulated packet by layer. The generator row covers the
  // emit event and the frame's allocation, so those are taken out of the
  // event-dispatch and pool rows.
  ledger_rows = {
      {"sim: event dispatch", push_pop_ns * (double(r.events) - sent) / pkts},
      {"net: packet pool",
       in.micro.make_release_ns * (double(snap.sum("pool.made")) - sent) / pkts},
      {"fabric: traffic generator", in.micro.gen_emit_ns * sent / pkts},
      {"sfp: inject",
       ns_per_call(span(SpanKind::sfp_inject)) *
           double(snap.sum("shell.ingress.packets")) / pkts},
      {"apps: process", ns_per_call(app) * app_calls / pkts},
      {"apps: churn table writes",
       churn_removes *
           (ns_per_call(span(SpanKind::add_binding)) +
            ns_per_call(span(SpanKind::remove_binding))) /
           pkts},
      {"fabric: sink",
       ns_per_call(span(SpanKind::sink)) *
           double(snap.sum("sink.received.packets")) / pkts},
  };
  std::sort(ledger_rows.begin(), ledger_rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  double explained = 0;
  for (const auto& row : ledger_rows) explained += row.second;

  const double rounds = double(r.rounds);
  return {
      {"sim.events_per_pkt", "ev/pkt", double(r.events) / pkts},
      {"sim.queue.push_pop_ns", "ns", push_pop_ns},
      {"sim.queue.overflow_spills_per_pkt", "1/pkt",
       double(snap.sum("sim.queue.overflow_spills")) / pkts},
      {"sim.queue.boxed_closures", "count",
       double(snap.sum("sim.queue.boxed_closures"))},
      {"sim.lockstep.wall_us_per_round", "us",
       ratio(r.steady_wall_s * 1e6, rounds)},
      {"sim.lockstep.pkts_per_round", "pkt", ratio(double(r.offered), rounds)},
      {"net.pool.make_release_ns", "ns", in.micro.make_release_ns},
      {"net.pool.reuse_ratio", "ratio",
       ratio(double(snap.sum("pool.reused")), double(snap.sum("pool.made")))},
      {"net.pool.heap_fallbacks", "count",
       double(snap.sum("pool.heap_fallbacks"))},
      {"net.allocs_per_pkt", "1/pkt",
       ratio(double(in.traced.steady_allocs), double(in.traced.steady_pkts))},
      {"net.parse_ns", "ns", in.micro.parse_ns},
      {"sfp.inject_ns_per_pkt", "ns",
       ns_per_call(span(SpanKind::sfp_inject))},
      {"apps.nat.process_ns", "ns", ns_per_call(span(SpanKind::app_nat))},
      {"apps.softwire.process_ns_down", "ns",
       ns_per_call(span(SpanKind::app_softwire_down))},
      {"apps.softwire.process_ns_up", "ns",
       ns_per_call(span(SpanKind::app_softwire_up))},
      {"apps.softwire.map_hit_ratio", "ratio",
       ratio(double(r.encapsulated), double(r.encapsulated + r.unmappable))},
      {"apps.softwire.add_binding_ns", "ns",
       ns_per_call(span(SpanKind::add_binding))},
      {"apps.softwire.remove_binding_ns", "ns",
       ns_per_call(span(SpanKind::remove_binding))},
      {"fabric.gen.emit_ns", "ns", in.micro.gen_emit_ns},
      {"fabric.sink_ns_per_pkt", "ns", ns_per_call(span(SpanKind::sink))},
      {"obs.snapshot_ms", "ms", r.snapshot_ms},
      {"obs.series", "count", double(r.series)},
      {"ledger.coverage", "ratio", ratio(explained, in.ns_per_pkt_p50)},
      {"trace.overhead_share", "ratio",
       1.0 - ratio(in.traced_pkts_per_s, in.untraced_pkts_per_s)},
  };
}

}  // namespace perfbench
