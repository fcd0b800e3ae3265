// flexsfp-stats: run one ModuleTestbed and render the telemetry spine.
//
// Drives traffic through a FlexSFP module running a registry app and prints
// a top-style per-stage report from the run's obs::MetricRegistry snapshot:
// packets served, utilization, queue drops and high watermark per service
// stage, app verdict counters, and a tail of the per-packet flight
// recording. Exit codes:
//   0  run completed
//   1  --fabric run's ledger unbalanced, or the fabric could not be built
//   2  usage error / unknown app
#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/verifier.hpp"
#include "apps/register.hpp"
#include "fabric/fabric_testbed.hpp"
#include "fabric/parallel_testbed.hpp"
#include "fabric/testbed.hpp"
#include "ppe/registry.hpp"

namespace {

using namespace flexsfp;

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: flexsfp-stats [options]\n"
               "\n"
               "Run traffic through one FlexSFP module and report the\n"
               "unified metric registry per stage -- the in-cable telemetry\n"
               "view of a testbed run.\n"
               "\n"
               "options:\n"
               "  --app <name>         PPE app from the registry (default\n"
               "                       nat; --list-apps shows choices)\n"
               "  --list-apps          list registered apps and exit\n"
               "  --rate <gbps>        offered rate per direction (default 10)\n"
               "  --frame <bytes>      fixed frame size 60-9216 (default 512)\n"
               "  --imix               IMIX sizes instead of fixed frames\n"
               "  --poisson            Poisson arrivals instead of CBR\n"
               "  --duration-us <n>    traffic duration (default 200)\n"
               "  --two-way            drive the optical side too\n"
               "  --seed <n>           traffic seed (default 1)\n"
               "  --sample-every <n>   flight-recorder sampling, 1 = every\n"
               "                       packet, 0 = off (default 16)\n"
               "  --flight <n>         flight-tail rows in the report\n"
               "                       (default 12)\n"
               "  --faults             inject a canned chaos profile on the\n"
               "                       ingress side and print the fault\n"
               "                       ledger (1%% drop, 1e-7 BER, dup,\n"
               "                       reorder, one mid-run flap)\n"
               "  --drop <p>           per-packet random loss probability\n"
               "  --ber <p>            per-bit corruption probability\n"
               "  --dup <p>            per-packet duplication probability\n"
               "  --reorder <p>        bounded-reorder probability\n"
               "  --mgmt-loss <p>      targeted loss of management frames\n"
               "  --flap <start:dur>   link-down window in microseconds\n"
               "                       (repeatable)\n"
               "  --fault-seed <n>     fault-stream seed (default 1)\n"
               "  --pools              run the flow-sharded parallel testbed\n"
               "                       and report per-shard packet-pool\n"
               "                       occupancy and event-queue pressure\n"
               "  --shards <n>         shard count for --pools (default 4)\n"
               "  --workers <n>        worker threads for --pools, 0 = one\n"
               "                       per hardware thread (default 0)\n"
               "  --fabric             run a multi-module crossbar fabric\n"
               "                       (ring topology) and report per-\n"
               "                       crosspoint occupancy/drops and the\n"
               "                       east-west byte matrix\n"
               "  --modules <n>        module count for --fabric, 2..256\n"
               "                       (default 3)\n"
               "  --json               machine-readable report on stdout\n"
               "  --csv <metrics|flight>  raw CSV dump on stdout\n"
               "  -h, --help           this text\n");
}

struct StageRow {
  std::string stage;
  std::uint64_t served_packets = 0;
  std::uint64_t served_bytes = 0;
  std::uint64_t busy_ps = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t watermark = 0;
};

const std::string* label(const obs::MetricSample& sample,
                         std::string_view key) {
  for (const auto& [k, v] : sample.labels) {
    if (k == key) return &v;
  }
  return nullptr;
}

// Checked full-string parses: the whole argument must be the number, and it
// must fit the target type. No sign, whitespace or trailing garbage.
template <typename Unsigned>
bool parse_uint(const char* text, Unsigned& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc{} && ptr == end;
}

bool parse_double(const char* text, double& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc{} && ptr == end && std::isfinite(out);
}

bool parse_probability(const char* text, double& out) {
  return parse_double(text, out) && out >= 0.0 && out <= 1.0;
}

// --fabric builds modules^2 crosspoints and their registry series; past a
// few hundred modules that is gigabytes, so the flag is bounded.
constexpr std::uint64_t kMaxFabricModules = 256;

// The most microseconds a picosecond TimePs can hold.
constexpr std::uint64_t max_us =
    std::uint64_t(std::numeric_limits<sim::TimePs>::max()) / 1'000'000;

// "start:dur" in microseconds -> a FlapWindow in picoseconds.
bool parse_flap(const char* text, sim::FlapWindow& out) {
  const char* end = text + std::strlen(text);
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
  const auto start = std::from_chars(text, end, start_us);
  if (start.ec != std::errc{} || start.ptr == end || *start.ptr != ':') {
    return false;
  }
  const auto dur = std::from_chars(start.ptr + 1, end, dur_us);
  // The injector tests now < start + duration, so the end must fit too.
  if (dur.ec != std::errc{} || dur.ptr != end || dur_us == 0 ||
      start_us > max_us || dur_us > max_us - start_us) {
    return false;
  }
  out.start = static_cast<sim::TimePs>(start_us) * 1'000'000;
  out.duration = static_cast<sim::TimePs>(dur_us) * 1'000'000;
  return true;
}

/// Everything one shard's pool.* / sim.queue.* series say about memory
/// pressure, pulled from the shard's already-labeled snapshot.
struct PoolRow {
  std::size_t shard = 0;
  std::uint64_t made = 0;
  std::uint64_t reused = 0;
  std::uint64_t heap_fallbacks = 0;
  std::uint64_t in_use = 0;
  std::uint64_t high_watermark = 0;
  std::uint64_t capacity = 0;
  std::uint64_t queue_peak = 0;
};

PoolRow pool_row(const fabric::ShardOutcome& outcome) {
  PoolRow row;
  row.shard = outcome.shard;
  for (const auto& sample : outcome.metrics.samples()) {
    if (sample.name == "pool.made") row.made = sample.value;
    if (sample.name == "pool.reused") row.reused = sample.value;
    if (sample.name == "pool.heap_fallbacks") row.heap_fallbacks = sample.value;
    if (sample.name == "pool.in_use") row.in_use = sample.value;
    if (sample.name == "pool.high_watermark") row.high_watermark = sample.value;
    if (sample.name == "pool.capacity") row.capacity = sample.value;
    if (sample.name == "sim.queue.pending_high_watermark") {
      row.queue_peak = sample.value;
    }
  }
  return row;
}

void print_pool_row(const char* name, const PoolRow& row) {
  const double reuse_pct =
      row.made > 0 ? 100.0 * double(row.reused) / double(row.made) : 0.0;
  const double occupancy_pct =
      row.capacity > 0 ? 100.0 * double(row.high_watermark) / double(row.capacity)
                       : 0.0;
  std::printf("%-8s %12llu %12llu %7.1f%% %10llu %8llu %8llu %8llu %6.1f%% %8llu\n",
              name, static_cast<unsigned long long>(row.made),
              static_cast<unsigned long long>(row.reused), reuse_pct,
              static_cast<unsigned long long>(row.heap_fallbacks),
              static_cast<unsigned long long>(row.in_use),
              static_cast<unsigned long long>(row.high_watermark),
              static_cast<unsigned long long>(row.capacity), occupancy_pct,
              static_cast<unsigned long long>(row.queue_peak));
}

void print_fault_ledger(const char* port, const sim::FaultTally& tally) {
  std::printf("%-14s %12llu %10llu %10llu %10llu %10llu %10llu %10llu\n",
              port, static_cast<unsigned long long>(tally.delivered),
              static_cast<unsigned long long>(tally.dropped),
              static_cast<unsigned long long>(tally.target_dropped),
              static_cast<unsigned long long>(tally.flap_dropped),
              static_cast<unsigned long long>(tally.corrupted),
              static_cast<unsigned long long>(tally.duplicated),
              static_cast<unsigned long long>(tally.reordered));
}

}  // namespace

int main(int argc, char** argv) {
  std::string app_name = "nat";
  double rate_gbps = 10.0;
  std::uint64_t frame = 512;
  bool imix = false;
  bool poisson = false;
  std::uint64_t duration_us = 200;
  bool two_way = false;
  std::uint64_t seed = 1;
  std::uint64_t sample_every = 16;
  std::uint64_t flight_tail = 12;
  bool list_apps = false;
  bool json = false;
  std::string csv;
  bool faults = false;
  double drop_prob = -1.0;
  double ber = -1.0;
  double dup_prob = -1.0;
  double reorder_prob = -1.0;
  double mgmt_loss = -1.0;
  std::vector<sim::FlapWindow> flaps;
  std::uint64_t fault_seed = 1;
  bool pools = false;
  std::uint64_t shards = 4;
  unsigned workers = 0;
  bool fabric = false;
  std::uint64_t modules = 3;

  // A malformed or out-of-range numeric value is a usage error, never a
  // silent 0 or a truncation.
  const auto bad_value = [](const std::string& flag, const char* text,
                            const char* expected) {
    std::fprintf(stderr, "flexsfp-stats: %s takes %s (got '%s')\n",
                 flag.c_str(), expected, text);
    return 2;
  };
  constexpr const char* kCount = "a non-negative integer";
  constexpr const char* kProbability = "a probability in [0, 1]";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--app" && has_value) {
      app_name = argv[++i];
    } else if (arg == "--list-apps") {
      list_apps = true;
    } else if (arg == "--rate" && has_value) {
      if (!parse_double(argv[++i], rate_gbps)) {
        return bad_value(arg, argv[i], "a number");
      }
    } else if (arg == "--frame" && has_value) {
      // From the Ethernet minimum to the largest (jumbo) frame the BPF
      // verifier models.
      const std::size_t max_frame =
          analysis::VerifierOptions{}.bpf_max_frame_bytes;
      if (!parse_uint(argv[++i], frame) || frame < 60 || frame > max_frame) {
        const std::string range =
            "a byte count in [60, " + std::to_string(max_frame) + "]";
        return bad_value(arg, argv[i], range.c_str());
      }
    } else if (arg == "--imix") {
      imix = true;
    } else if (arg == "--poisson") {
      poisson = true;
    } else if (arg == "--duration-us" && has_value) {
      if (!parse_uint(argv[++i], duration_us) || duration_us > max_us) {
        return bad_value(arg, argv[i],
                         "a microsecond count that fits the simulated clock");
      }
    } else if (arg == "--two-way") {
      two_way = true;
    } else if (arg == "--seed" && has_value) {
      if (!parse_uint(argv[++i], seed)) {
        return bad_value(arg, argv[i], kCount);
      }
    } else if (arg == "--sample-every" && has_value) {
      if (!parse_uint(argv[++i], sample_every)) {
        return bad_value(arg, argv[i], kCount);
      }
    } else if (arg == "--flight" && has_value) {
      if (!parse_uint(argv[++i], flight_tail)) {
        return bad_value(arg, argv[i], kCount);
      }
    } else if (arg == "--faults") {
      faults = true;
    } else if (arg == "--drop" && has_value) {
      if (!parse_probability(argv[++i], drop_prob)) {
        return bad_value(arg, argv[i], kProbability);
      }
    } else if (arg == "--ber" && has_value) {
      if (!parse_probability(argv[++i], ber)) {
        return bad_value(arg, argv[i], kProbability);
      }
    } else if (arg == "--dup" && has_value) {
      if (!parse_probability(argv[++i], dup_prob)) {
        return bad_value(arg, argv[i], kProbability);
      }
    } else if (arg == "--reorder" && has_value) {
      if (!parse_probability(argv[++i], reorder_prob)) {
        return bad_value(arg, argv[i], kProbability);
      }
    } else if (arg == "--mgmt-loss" && has_value) {
      if (!parse_probability(argv[++i], mgmt_loss)) {
        return bad_value(arg, argv[i], kProbability);
      }
    } else if (arg == "--flap" && has_value) {
      sim::FlapWindow window;
      if (!parse_flap(argv[++i], window)) {
        std::fprintf(stderr,
                     "flexsfp-stats: --flap takes '<start_us>:<dur_us>'\n");
        return 2;
      }
      flaps.push_back(window);
    } else if (arg == "--fault-seed" && has_value) {
      if (!parse_uint(argv[++i], fault_seed)) {
        return bad_value(arg, argv[i], kCount);
      }
    } else if (arg == "--pools") {
      pools = true;
    } else if (arg == "--fabric") {
      fabric = true;
    } else if (arg == "--modules" && has_value) {
      if (!parse_uint(argv[++i], modules) || modules > kMaxFabricModules) {
        return bad_value(arg, argv[i], "a module count of at most 256");
      }
    } else if (arg == "--shards" && has_value) {
      if (!parse_uint(argv[++i], shards)) {
        return bad_value(arg, argv[i], kCount);
      }
    } else if (arg == "--workers" && has_value) {
      if (!parse_uint(argv[++i], workers)) {
        return bad_value(arg, argv[i], "a worker count that fits unsigned");
      }
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--csv" && has_value) {
      csv = argv[++i];
    } else if (arg == "-h" || arg == "--help") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "flexsfp-stats: unknown option '%s'\n",
                   arg.c_str());
      usage(stderr);
      return 2;
    }
  }
  if (!csv.empty() && csv != "metrics" && csv != "flight") {
    std::fprintf(stderr, "flexsfp-stats: --csv takes 'metrics' or 'flight'\n");
    return 2;
  }
  if (rate_gbps <= 0 || duration_us == 0) {
    std::fprintf(stderr,
                 "flexsfp-stats: need --rate > 0 and --duration-us >= 1\n");
    return 2;
  }
  if (pools && shards == 0) {
    std::fprintf(stderr, "flexsfp-stats: --shards must be >= 1\n");
    return 2;
  }
  if (fabric && modules < 2) {
    std::fprintf(stderr, "flexsfp-stats: --modules must be >= 2\n");
    return 2;
  }

  apps::register_builtin_apps();
  const auto& registry = ppe::AppRegistry::instance();
  if (list_apps) {
    for (const auto& name : registry.names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  auto app = registry.create(app_name, net::BytesView{});
  if (app == nullptr) {
    std::fprintf(stderr,
                 "flexsfp-stats: unknown app '%s' (--list-apps shows the "
                 "registry)\n",
                 app_name.c_str());
    return 2;
  }

  fabric::TestbedConfig config;
  config.flight.sample_every = sample_every;
  fabric::TrafficSpec spec;
  spec.rate = sim::DataRate::gbps(rate_gbps);
  spec.arrivals = poisson ? fabric::ArrivalProcess::poisson
                          : fabric::ArrivalProcess::cbr;
  spec.sizes = imix ? fabric::SizeDistribution::imix
                    : fabric::SizeDistribution::fixed;
  spec.fixed_size = static_cast<std::size_t>(frame);
  spec.seed = seed;
  spec.duration = static_cast<sim::TimePs>(duration_us) * 1'000'000;
  config.edge_traffic = spec;
  if (two_way) {
    fabric::TrafficSpec reverse = spec;
    reverse.seed = seed + 1;
    config.optical_traffic = reverse;
  }

  const bool fault_knob_given = drop_prob >= 0 || ber >= 0 || dup_prob >= 0 ||
                                reorder_prob >= 0 || mgmt_loss >= 0 ||
                                !flaps.empty();
  if (faults || fault_knob_given) {
    faults = true;
    sim::FaultSpec fault_spec;
    if (fault_knob_given) {
      if (drop_prob >= 0) fault_spec.drop_prob = drop_prob;
      if (ber >= 0) fault_spec.ber = ber;
      if (dup_prob >= 0) fault_spec.duplicate_prob = dup_prob;
      if (reorder_prob >= 0) fault_spec.reorder_prob = reorder_prob;
      if (mgmt_loss >= 0) fault_spec.target_drop_prob = mgmt_loss;
      fault_spec.flaps = flaps;
    } else {
      // Canned chaos profile: enough of everything to exercise each fault
      // path, plus one link flap covering 10% of the run.
      fault_spec.drop_prob = 0.01;
      fault_spec.ber = 1e-7;
      fault_spec.duplicate_prob = 0.005;
      fault_spec.reorder_prob = 0.005;
      fault_spec.flaps.push_back(
          {spec.duration / 4, spec.duration / 10});
    }
    fault_spec.seed = fault_seed;
    config.edge_faults = fault_spec;
    if (two_way) {
      sim::FaultSpec reverse_faults = fault_spec;
      reverse_faults.seed = fault_seed + 1;
      config.optical_faults = reverse_faults;
    }
  }

  if (fabric) {
    // Multi-module crossbar fabric: ring topology, every module's edge
    // traffic crosses cable -> switch -> cable. The report reads the
    // fabric.xbar.* series: per-crosspoint occupancy high-watermarks and
    // drops, and the east-west byte matrix per output port.
    fabric::Topology topo;
    topo.modules = static_cast<std::size_t>(modules);
    topo.base_seed = seed;
    topo.traffic_prototype = spec;
    topo.flight.sample_every = sample_every;
    if (config.edge_faults) topo.link_faults = config.edge_faults;
    // A topology the library rejects, or one too large for this host, is
    // an error report, not an escaped exception.
    std::unique_ptr<fabric::FabricTestbed> bed;
    fabric::FabricRunResult run;
    try {
      bed = std::make_unique<fabric::FabricTestbed>(
          topo, [&registry, &app_name] {
            return registry.create(app_name, net::BytesView{});
          });
      run = bed->run();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "flexsfp-stats: fabric run failed: %s\n",
                   e.what());
      return 1;
    }
    const auto& xbar = bed->crossbar();

    if (json) {
      std::string doc = "{\"app\":\"" + app_name +
                        "\",\"modules\":" + std::to_string(modules) +
                        ",\"crosspoints\":[";
      bool first = true;
      for (std::size_t in = 0; in < modules; ++in) {
        for (std::size_t out = 0; out < modules; ++out) {
          if (!first) doc += ",";
          first = false;
          const std::uint64_t drops = run.metrics.value(
              "fabric.xbar.crosspoint_drops{in=" + std::to_string(in) +
              ",out=" + std::to_string(out) + ",xbar=" + xbar.name() + "}");
          doc += "{\"in\":" + std::to_string(in) +
                 ",\"out\":" + std::to_string(out) + ",\"hwm\":" +
                 std::to_string(xbar.crosspoint_high_watermark(in, out)) +
                 ",\"drops\":" + std::to_string(drops) + "}";
        }
      }
      doc += "],\"ledger\":{\"sent\":" + std::to_string(run.ledger.sent) +
             ",\"delivered\":" + std::to_string(run.ledger.delivered) +
             ",\"crosspoint_drops\":" +
             std::to_string(run.ledger.crosspoint_drops) +
             ",\"unrouted\":" + std::to_string(run.ledger.unrouted) +
             ",\"balanced\":" +
             (run.ledger.balanced() ? "true" : "false") +
             "},\"metrics\":" + run.metrics.to_json() + "}";
      std::printf("%s\n", doc.c_str());
      return run.ledger.balanced() ? 0 : 1;
    }

    std::printf("flexsfp-stats: app=%s, %llu-module crossbar fabric, "
                "%.6g us simulated\n\n",
                app_name.c_str(), static_cast<unsigned long long>(modules),
                static_cast<double>(spec.duration) * 1e-6);
    std::printf("%-8s %12s %12s %12s %10s %10s\n", "module", "sent",
                "received", "delivered", "p50 (ns)", "p99 (ns)");
    for (std::size_t i = 0; i < run.modules.size(); ++i) {
      const auto& m = run.modules[i];
      std::printf("%-8zu %12llu %12llu %9.2f Gb %10.1f %10.1f\n", i,
                  static_cast<unsigned long long>(m.sent_packets),
                  static_cast<unsigned long long>(m.received_packets),
                  m.delivered_gbps, m.latency_p50_ns, m.latency_p99_ns);
    }

    // East-west matrix: occupancy high-watermark of every crosspoint (row =
    // input module, column = output port), then per-output forwarded bytes.
    std::printf("\ncrosspoint occupancy high-watermark (in x out):\n%8s", "");
    for (std::size_t out = 0; out < modules; ++out) {
      std::printf(" %8zu", out);
    }
    std::putchar('\n');
    for (std::size_t in = 0; in < modules; ++in) {
      std::printf("%8zu", in);
      for (std::size_t out = 0; out < modules; ++out) {
        std::printf(" %8llu", static_cast<unsigned long long>(
                                  xbar.crosspoint_high_watermark(in, out)));
      }
      std::putchar('\n');
    }
    std::printf("\n%-8s %16s %14s\n", "output", "east-west bytes", "packets");
    for (std::size_t out = 0; out < modules; ++out) {
      std::printf("%-8zu %16llu %14llu\n", out,
                  static_cast<unsigned long long>(xbar.forwarded_bytes(out)),
                  static_cast<unsigned long long>(
                      xbar.forwarded_packets(out)));
    }

    std::printf("\nledger: sent=%llu delivered=%llu crosspoint_drops=%llu "
                "unrouted=%llu fault_dropped=%llu -> %s\n",
                static_cast<unsigned long long>(run.ledger.sent),
                static_cast<unsigned long long>(run.ledger.delivered),
                static_cast<unsigned long long>(run.ledger.crosspoint_drops),
                static_cast<unsigned long long>(run.ledger.unrouted),
                static_cast<unsigned long long>(run.ledger.fault_dropped),
                run.ledger.balanced() ? "balanced" : "UNBALANCED");
    return run.ledger.balanced() ? 0 : 1;
  }

  if (pools) {
    // Per-shard memory-pressure report: one pool per shard simulation, so
    // the pool.* series of each shard's snapshot are that shard's pool.
    fabric::ParallelTestbedConfig parallel_config;
    parallel_config.shards = static_cast<std::size_t>(shards);
    parallel_config.base_seed = seed;
    parallel_config.prototype = config;
    fabric::ParallelTestbed bed(parallel_config, [&registry, &app_name] {
      return registry.create(app_name, net::BytesView{});
    });
    const auto parallel = bed.run(workers);

    if (json) {
      std::string doc = "{\"app\":\"" + app_name + "\",\"shards\":[";
      for (std::size_t i = 0; i < parallel.shards.size(); ++i) {
        const PoolRow row = pool_row(parallel.shards[i]);
        if (i != 0) doc += ",";
        doc += "{\"shard\":" + std::to_string(row.shard) +
               ",\"made\":" + std::to_string(row.made) +
               ",\"reused\":" + std::to_string(row.reused) +
               ",\"heap_fallbacks\":" + std::to_string(row.heap_fallbacks) +
               ",\"in_use\":" + std::to_string(row.in_use) +
               ",\"high_watermark\":" + std::to_string(row.high_watermark) +
               ",\"capacity\":" + std::to_string(row.capacity) +
               ",\"queue_peak\":" + std::to_string(row.queue_peak) + "}";
      }
      doc += "],\"workers_used\":" + std::to_string(parallel.workers_used) +
             "}";
      std::printf("%s\n", doc.c_str());
      return 0;
    }

    std::printf("flexsfp-stats: app=%s, %zu shard(s) on %u worker(s), "
                "%.6g us simulated per shard\n\n",
                app_name.c_str(), parallel.shards.size(),
                parallel.workers_used,
                static_cast<double>(spec.duration) * 1e-6);
    std::printf("%-8s %12s %12s %8s %10s %8s %8s %8s %7s %8s\n", "shard",
                "made", "reused", "reuse", "fallbacks", "in-use", "peak",
                "cap", "occ", "q-peak");
    PoolRow total;
    for (const auto& outcome : parallel.shards) {
      const PoolRow row = pool_row(outcome);
      print_pool_row(std::to_string(row.shard).c_str(), row);
      total.made += row.made;
      total.reused += row.reused;
      total.heap_fallbacks += row.heap_fallbacks;
      total.in_use += row.in_use;
      total.high_watermark += row.high_watermark;
      total.capacity += row.capacity;
      total.queue_peak = std::max(total.queue_peak, row.queue_peak);
    }
    print_pool_row("all", total);
    std::printf(
        "\npools: heap fallbacks mean a shard outran its pool reserve; "
        "in-use > 0 after a run means packets were retained past the "
        "barrier.\n");
    return 0;
  }

  fabric::ModuleTestbed testbed(std::move(config), std::move(app));
  const auto result = testbed.run();
  const auto& flight = testbed.sim().flight();

  if (json) {
    std::printf("{\"app\":\"%s\",\"duration_ps\":%lld,\"metrics\":%s,"
                "\"flight\":%s}\n",
                app_name.c_str(), static_cast<long long>(result.duration),
                result.metrics.to_json().c_str(), flight.to_json().c_str());
    return 0;
  }
  if (csv == "metrics") {
    std::fputs(result.metrics.to_csv().c_str(), stdout);
    return 0;
  }
  if (csv == "flight") {
    std::fputs(flight.to_csv().c_str(), stdout);
    return 0;
  }

  // --- per-stage report (every server.* series, grouped by stage label) ---
  std::map<std::string, StageRow> stages;
  for (const auto& sample : result.metrics.samples()) {
    const std::string* stage = label(sample, "stage");
    if (stage == nullptr) continue;
    StageRow& row = stages[*stage];
    row.stage = *stage;
    if (sample.name == "server.served.packets") {
      row.served_packets += sample.value;
    } else if (sample.name == "server.served.bytes") {
      row.served_bytes += sample.value;
    } else if (sample.name == "server.busy_ps") {
      row.busy_ps += sample.value;
    } else if (sample.name == "server.queue_drops") {
      row.queue_drops += sample.value;
    } else if (sample.name == "server.queue_high_watermark") {
      row.watermark = std::max(row.watermark, sample.value);
    }
  }
  std::vector<StageRow> rows;
  rows.reserve(stages.size());
  for (auto& [_, row] : stages) rows.push_back(std::move(row));
  std::sort(rows.begin(), rows.end(), [](const StageRow& a, const StageRow& b) {
    if (a.served_packets != b.served_packets) {
      return a.served_packets > b.served_packets;
    }
    return a.stage < b.stage;
  });

  const double duration_ps = static_cast<double>(result.duration);
  std::printf("flexsfp-stats: app=%s, %.6g us simulated\n\n", app_name.c_str(),
              duration_ps * 1e-6);
  std::printf("%-14s %12s %14s %8s %10s %10s\n", "stage", "served", "bytes",
              "util", "q-drops", "q-peak");
  for (const StageRow& row : rows) {
    std::printf("%-14s %12llu %14llu %7.1f%% %10llu %10llu\n",
                row.stage.c_str(),
                static_cast<unsigned long long>(row.served_packets),
                static_cast<unsigned long long>(row.served_bytes),
                duration_ps > 0
                    ? 100.0 * static_cast<double>(row.busy_ps) / duration_ps
                    : 0.0,
                static_cast<unsigned long long>(row.queue_drops),
                static_cast<unsigned long long>(row.watermark));
  }

  std::printf("\n%-24s %12s %12s %12s\n", "app verdicts", "forwarded",
              "app-drops", "punted");
  std::map<std::string, std::array<std::uint64_t, 3>> verdicts;
  for (const auto& sample : result.metrics.samples()) {
    const std::string* app_label = label(sample, "app");
    if (app_label == nullptr) continue;
    auto& row = verdicts[*app_label];
    if (sample.name == "engine.forwarded") row[0] += sample.value;
    if (sample.name == "engine.app_drops") row[1] += sample.value;
    if (sample.name == "engine.punted") row[2] += sample.value;
  }
  for (const auto& [name, row] : verdicts) {
    std::printf("%-24s %12llu %12llu %12llu\n", name.c_str(),
                static_cast<unsigned long long>(row[0]),
                static_cast<unsigned long long>(row[1]),
                static_cast<unsigned long long>(row[2]));
  }

  std::printf("\nedge->optical: sent=%llu received=%llu loss=%.3f%% "
              "p99=%.1fns\n",
              static_cast<unsigned long long>(
                  result.edge_to_optical.sent_packets),
              static_cast<unsigned long long>(
                  result.edge_to_optical.received_packets),
              result.edge_to_optical.loss_rate * 100.0,
              result.edge_to_optical.latency_p99_ns);
  if (two_way) {
    std::printf("optical->edge: sent=%llu received=%llu loss=%.3f%% "
                "p99=%.1fns\n",
                static_cast<unsigned long long>(
                    result.optical_to_edge.sent_packets),
                static_cast<unsigned long long>(
                    result.optical_to_edge.received_packets),
                result.optical_to_edge.loss_rate * 100.0,
                result.optical_to_edge.latency_p99_ns);
  }
  if (faults) {
    std::printf("\n%-14s %12s %10s %10s %10s %10s %10s %10s\n",
                "fault ledger", "delivered", "dropped", "targeted", "flapped",
                "corrupted", "duplicated", "reordered");
    print_fault_ledger("edge", testbed.edge_faults()->tally());
    if (two_way) {
      print_fault_ledger("optical", testbed.optical_faults()->tally());
    }
  }
  std::printf("dark drops=%llu, control punts=%llu, %zu series in snapshot\n",
              static_cast<unsigned long long>(
                  result.metrics.sum("module.dark_drops")),
              static_cast<unsigned long long>(
                  result.metrics.sum("shell.control_punts")),
              result.metrics.size());

  // --- flight tail: the newest sampled stage hops, oldest first ----------
  if (flight_tail > 0 && flight.enabled()) {
    const auto events = flight.events();
    const std::size_t tail =
        std::min<std::size_t>(events.size(), flight_tail);
    std::printf("\nflight recorder: %llu hops recorded, %llu overwritten, "
                "1-in-%llu sampling; last %zu:\n",
                static_cast<unsigned long long>(flight.recorded()),
                static_cast<unsigned long long>(flight.overwritten()),
                static_cast<unsigned long long>(flight.sample_every()), tail);
    std::printf("%12s %14s %-14s %-12s %8s %12s\n", "packet", "time_ps",
                "stage", "hop", "depth", "aux_ps");
    for (std::size_t i = events.size() - tail; i < events.size(); ++i) {
      const auto& event = events[i];
      std::printf("%12llu %14lld %-14s %-12s %8u %12llu\n",
                  static_cast<unsigned long long>(event.packet),
                  static_cast<long long>(event.time_ps),
                  flight.stage_name(event.stage).c_str(),
                  obs::to_string(event.kind).c_str(), event.queue_depth,
                  static_cast<unsigned long long>(event.aux));
    }
  }
  return 0;
}
