// Host-cost benchmark: command line, replay loop, statistics and output.
//
//   perfbench --workload <nat_64b|softwire_churn|fabric_incast> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Repeats replays of the workload until --seconds of host time are spent,
// checks every replay's simulated outputs, and prints human-readable lines
// followed by one JSON object as the last line. Host times in the metrics
// are scaled to the quiet host speed by the probes taken between replays
// (bench.hpp); the unscaled figures are printed alongside.
//
//   --trace 0: the end-to-end metrics, from untraced replays;
//   --trace 1: the per-layer metrics. Half the budget goes to untraced
//              replays (the base of trace.overhead_share), half to traced
//              ones, then the layer microbenches run.
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "layers.hpp"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
      continue;
    }
    if (key == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      opt.trace = std::strtoul(value, &end, 10) != 0;
    } else {
      return false;
    }
    if (end == value || *end != '\0') return false;
  }
  return argc % 2 == 1 && opt.seconds > 0;
}

/// Sample at the nearest rank of percentile `p` of sorted `v`.
double percentile(const std::vector<double>& v, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * double(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Samples that must lie beyond the tail percentile.
constexpr std::size_t kBeyondTail = 10;

struct Tail {
  double ns = 0;
  double percentile = 0;
};

/// ns_per_pkt_tail from each replay's scaled samples. Windowed replays:
/// each replay's highest percentile with kBeyondTail samples beyond it,
/// lower quartile over replays. A stall the workload causes recurs in every
/// replay and moves every replay's tail; host noise the probes do not
/// scale out strikes some replays only. Single-sample replays: the pooled
/// p90, stepped down until kBeyondTail samples lie beyond it.
Tail tail_of(const std::vector<std::vector<double>>& per_replay_samples,
             const std::vector<double>& pooled) {
  std::vector<double> per_replay, pct;
  for (std::vector<double> v : per_replay_samples) {
    if (v.size() <= 2 * kBeyondTail) break;
    std::sort(v.begin(), v.end());
    per_replay.push_back(v[v.size() - kBeyondTail - 1]);
    pct.push_back(100.0 * double(v.size() - kBeyondTail) / double(v.size()));
  }
  if (!per_replay.empty() && per_replay.size() == per_replay_samples.size()) {
    std::sort(per_replay.begin(), per_replay.end());
    return {percentile(per_replay, 25), median(pct)};
  }
  for (double p : {90.0, 75.0, 50.0}) {
    const auto rank =
        static_cast<std::size_t>(std::ceil(p / 100.0 * double(pooled.size())));
    if (pooled.size() >= rank + kBeyondTail) return {percentile(pooled, p), p};
  }
  return {pooled.empty() ? 0.0 : percentile(pooled, 50), 50};
}

/// Slowdowns against nominal at one moment between replays, each the
/// median of three probes.
struct HostSpeed {
  double compute = 1;
  double wake = 1;
};

HostSpeed probe_host(const Workload& workload) {
  constexpr int kProbes = 3;
  const bool wake = workload.lockstep();
  std::vector<double> compute, wakes;
  for (int i = 0; i < kProbes; ++i) {
    compute.push_back(compute_probe_ns());
    if (wake) wakes.push_back(wake_probe_ns());
  }
  HostSpeed speed;
  speed.compute = median(compute) / workload.compute_probe_nominal_ns();
  if (wake) speed.wake = median(wakes) / kWakeNominalNs;
  return speed;
}

/// Replays until `seconds` of host time are spent (at least one), checking
/// each against the first replay of `reference` (or of this batch). The
/// host is probed before the first replay and after each one; a replay's
/// slowdowns are the mean of the probes on either side over nominal.
std::vector<Replay> replays(Workload& workload, bool traced, double seconds,
                            const Replay* reference) {
  std::vector<Replay> out;
  const bool wake = workload.lockstep();
  HostSpeed before = probe_host(workload);
  const std::int64_t start = now_ns();
  do {
    out.push_back(workload.replay(traced));
    const HostSpeed after = probe_host(workload);
    Replay& r = out.back();
    r.compute_slowdown = (before.compute + after.compute) / 2;
    r.steady_slowdown =
        wake ? (before.wake + after.wake) / 2 : r.compute_slowdown;
    before = after;
    const Replay& ref = reference != nullptr ? *reference : out.front();
    if (out.back().figures != ref.figures) {
      out.back().fail(1, std::string(traced ? "traced " : "") + "replay " +
                             std::to_string(out.size()) +
                             " simulated figures differ from the first replay");
    }
    // Only the first replay's snapshot is read later; keeping every one
    // would grow peak_rss_mb with the replay count.
    if (out.size() > 1) out.back().snapshot = flexsfp::obs::MetricSnapshot{};
  } while (double(now_ns() - start) * 1e-9 < seconds);
  return out;
}

void check_expected(const Workload& workload, Replay& r, std::uint64_t seed) {
  const Figures expected = workload.expected();
  if (seed != kDefaultSeed || expected.empty()) return;
  for (const auto& [name, value] : expected) {
    const auto it = r.figures.find(name);
    const std::int64_t got = it == r.figures.end() ? -1 : it->second;
    if (got != value) {
      r.fail(1, "figure " + name + " = " + std::to_string(got) +
                    ", recorded " + std::to_string(value));
    }
  }
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int run(const Options& opt) {
  const auto workload = make_workload(opt.workload, opt.seed);
  if (!workload) return usage("unknown workload");

  const double untraced_budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<Replay> plain = replays(*workload, false, untraced_budget, nullptr);
  Replay& first = plain.front();
  workload->once_checks(first);
  check_expected(*workload, first, opt.seed);

  // Every host time is scaled to nominal host speed by its replay's
  // slowdown; the raw figures are printed alongside.
  std::vector<double> samples, raw_samples, setup, report, rates, raw_rates;
  std::vector<double> compute_slowdowns, steady_slowdowns;
  std::vector<std::vector<double>> per_replay_samples;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  const auto account = [&](const Replay& r) {
    attempted += r.offered;
    failed += r.failed;
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
  };
  const auto scaled_rate = [](const Replay& r) {
    return r.steady_pkts_per_s() * r.steady_slowdown;
  };
  for (const Replay& r : plain) {
    std::vector<double>& scaled = per_replay_samples.emplace_back();
    for (double ns : r.samples_ns_per_pkt) scaled.push_back(ns / r.steady_slowdown);
    samples.insert(samples.end(), scaled.begin(), scaled.end());
    raw_samples.insert(raw_samples.end(), r.samples_ns_per_pkt.begin(),
                       r.samples_ns_per_pkt.end());
    setup.push_back(r.setup_s / r.compute_slowdown);
    report.push_back(r.report_s / r.compute_slowdown);
    rates.push_back(scaled_rate(r));
    raw_rates.push_back(r.steady_pkts_per_s());
    compute_slowdowns.push_back(r.compute_slowdown);
    steady_slowdowns.push_back(r.steady_slowdown);
    account(r);
  }
  std::sort(samples.begin(), samples.end());
  std::sort(raw_samples.begin(), raw_samples.end());
  // Medians over replays, so a burst of host noise in one replay moves
  // neither the rate nor the set-up and report times.
  const double pkts_per_s = median(rates);
  const double p50 = samples.empty() ? 0 : percentile(samples, 50);
  const double raw_p50 = raw_samples.empty() ? 0 : percentile(raw_samples, 50);
  const Tail tail = tail_of(per_replay_samples, samples);

  std::printf("perfbench %s seed=%llu trace=%d: %zu untraced replays, %zu "
              "samples, tail = p%.4g\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, plain.size(), samples.size(), tail.percentile);
  if (!samples.empty()) {
    std::printf("ns per packet: p50 %.1f  p90 %.1f  p95 %.1f  p99 %.1f  max %.1f\n",
                p50, percentile(samples, 90), percentile(samples, 95),
                percentile(samples, 99), samples.back());
  }
  std::printf("host slowdown (median over replays): compute %.3f, steady "
              "region %.3f; unscaled: pkts_per_s %.6g, ns_per_pkt_p50 %.1f\n",
              median(compute_slowdowns), median(steady_slowdowns),
              median(raw_rates), raw_p50);
  std::printf("simulated figures of one replay:");
  for (const auto& [name, value] : first.figures) {
    std::printf(" %s=%lld", name.c_str(), static_cast<long long>(value));
  }
  std::printf("\n");

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"pkts_per_s", "pkt/s", pkts_per_s},
        {"ns_per_pkt_p50", "ns", p50},
        {"ns_per_pkt_tail", "ns", tail.ns},
        {"setup_s", "s", median(setup)},
        {"report_s", "s", median(report)},
        {"peak_rss_mb", "MiB", peak_rss_mb()},
    };
  } else {
    const double overhead = span_overhead_ns();
    std::vector<Replay> traced =
        replays(*workload, true, opt.seconds / 2, &first);
    LayerInputs in;
    in.untraced = first;
    in.traced = traced.front();
    in.untraced_pkts_per_s = pkts_per_s;
    std::vector<double> traced_rates;
    for (const Replay& r : traced) {
      traced_rates.push_back(scaled_rate(r));
      account(r);
    }
    in.traced_pkts_per_s = median(traced_rates);
    // The span and microbench figures are unscaled, so the ledger compares
    // them with the unscaled median.
    in.ns_per_pkt_p50 = raw_p50;
    in.spans = collect_spans();
    in.span_overhead_ns = overhead;
    std::printf("clock cost of an empty span: %.1f ns, subtracted below\n",
                overhead);
    in.traced_replays = traced.size();
    in.micro = workload->microbench();
    for (std::size_t k = 0; k < in.spans.size(); ++k) {
      const SpanTotals& s = in.spans[k];
      std::printf("span %-32s calls %12llu self %10.1f ns/call\n",
                  span_name(static_cast<SpanKind>(k)),
                  static_cast<unsigned long long>(s.calls), s.self_ns_per_call());
      if (s.self_ns() < 0) {
        failed += 1;
        failures.push_back(std::string("negative self time in span ") +
                           span_name(static_cast<SpanKind>(k)));
      }
    }
    std::vector<std::pair<std::string, double>> rows;
    for (const LayerMetric& m : layer_metrics(in, rows)) {
      metrics.push_back({m.name, m.unit, m.value});
    }
    std::printf("cost ledger, host ns per simulated packet (unscaled "
                "ns_per_pkt_p50 %.1f):\n", raw_p50);
    for (const auto& [layer, ns] : rows) {
      std::printf("  %-28s %8.1f ns  %5.1f%%\n", layer.c_str(), ns,
                  raw_p50 > 0 ? 100.0 * ns / raw_p50 : 0.0);
    }
  }

  const double failed_share = attempted > 0 ? double(failed) / double(attempted) : 0;
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-36s %16.6g ratio (%llu of %llu simulated packets)\n",
              "failed_share", failed_share,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted, 1));
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::parse_args(argc, argv, opt) || opt.workload.empty()) {
    return perfbench::usage("bad arguments");
  }
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
