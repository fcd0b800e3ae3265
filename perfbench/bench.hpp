// Shared declarations of the host-cost benchmark: run options, the span
// tracer the traced run records with, and what one replay of a workload
// hands back to main.cpp.
//
// A replay is one complete simulated experiment: set-up, a warm-up stretch,
// the timed steady region (split into fixed simulated-time windows), drain
// to quiescence, then result collection. Replays of one seed are identical
// in simulated time, so main.cpp repeats them until the run's host-time
// budget is spent and checks that every replay agrees.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

// --- clocks and process accounting ------------------------------------------

/// Monotonic host time in nanoseconds.
[[nodiscard]] std::int64_t now_ns();
/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

// --- host speed probes ----------------------------------------------------------
// A shared host runs this process at a speed that drifts by tens of percent
// for seconds to minutes at a time. main.cpp times fixed probe kernels
// between replays and scales each replay's host times by nominal / measured,
// so that figures read as if the host ran at its quiet speed. The nominal
// figures are what the probes read on a quiet 4-vCPU 2.1 GHz Xeon VM.

/// Host ns of one pass of a fixed single-thread event-loop kernel that
/// shares the simulator's host profile (heap queue, virtual dispatch over
/// many code paths, frame copies, hash lookups) but none of its code.
[[nodiscard]] double compute_probe_ns();
/// Host ns of 50 condition-variable round trips with a fresh partner
/// thread: the wake-up path every lockstep barrier round takes.
[[nodiscard]] double wake_probe_ns();
inline constexpr double kWakeNominalNs = 600000;

/// Heap allocations counted by the benchmark's replacement operator new
/// while counting is switched on (the traced run only).
void set_alloc_counting(bool on);
[[nodiscard]] std::uint64_t counted_allocs();

// --- spans --------------------------------------------------------------------

/// Layer boundaries the traced run wraps. Each span is timed around one call
/// from benchmark code into the named layer.
enum class SpanKind : std::uint8_t {
  sfp_inject,       // FlexSfpModule::inject
  app_nat,          // StaticNat::process (through the forwarding wrapper)
  app_softwire_down,  // LwAftr::process on an IPv4 (downstream) frame
  app_softwire_up,    // LwAftr::process on an IPv6 (upstream) frame
  sink,             // egress handler into fabric::Sink
  add_binding,      // LwAftr::add_binding
  remove_binding,   // LwAftr::remove_binding
  count,
};

[[nodiscard]] const char* span_name(SpanKind kind);

struct SpanTotals {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  /// Part of total_ns covered by child spans; self time = total - child.
  std::int64_t child_ns = 0;

  [[nodiscard]] std::int64_t self_ns() const { return total_ns - child_ns; }
  [[nodiscard]] double self_ns_per_call() const {
    return calls > 0 ? double(self_ns()) / double(calls) : 0.0;
  }
};
using SpanTable = std::array<SpanTotals, static_cast<std::size_t>(SpanKind::count)>;

/// RAII span. Spans nest per thread: a span opened while another is open
/// on the same thread is its child, and its duration is charged to the
/// parent's child time. Only the traced topologies construct spans.
class Span {
 public:
  explicit Span(SpanKind kind);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanKind kind_;
  std::int64_t start_;
};

/// Fold every thread's span totals recorded since the last call into one
/// table and reset them. Call only while no span is open on any thread
/// (between replays, after the worker threads joined).
[[nodiscard]] SpanTable collect_spans();

/// Host ns an empty span records: the clock-read cost every span's
/// duration carries, subtracted from per-call figures.
[[nodiscard]] double span_overhead_ns();

// --- replays ------------------------------------------------------------------

/// The seed the recorded simulated figures belong to.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Simulated outputs of one replay, keyed by name; compared across replays,
/// between traced and untraced runs and against the recorded figures.
using Figures = std::map<std::string, std::int64_t>;

struct Replay {
  double setup_s = 0;
  double report_s = 0;
  /// Host ns per simulated packet of each steady sample.
  std::vector<double> samples_ns_per_pkt;
  double steady_wall_s = 0;
  std::uint64_t steady_pkts = 0;

  /// Frames the generators emitted plus fault duplicates.
  std::uint64_t offered = 0;
  std::uint64_t events = 0;
  /// Simulated time the replay covered, ps.
  std::int64_t simulated_ps = 0;
  /// Packets whose fate the ledger or an output check could not confirm.
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  Figures figures;
  /// The registry snapshot of the replay (merged in shard order).
  flexsfp::obs::MetricSnapshot snapshot;

  /// Lockstep engine only.
  std::uint64_t rounds = 0;
  /// Allocations counted during the steady region (traced run only).
  std::uint64_t steady_allocs = 0;
  /// Softwire only: encapsulated and unmappable downstream frames.
  std::uint64_t encapsulated = 0;
  std::uint64_t unmappable = 0;
  /// Host time of MetricRegistry::snapshot() plus merge, and series count.
  double snapshot_ms = 0;
  std::uint64_t series = 0;

  /// How much slower than nominal the host ran around this replay, by the
  /// probes main.cpp takes before and after it: compute for single-thread
  /// work, steady for the steady region (wake for the lockstep engine).
  double compute_slowdown = 1;
  double steady_slowdown = 1;

  [[nodiscard]] double steady_pkts_per_s() const {
    return steady_wall_s > 0 ? double(steady_pkts) / steady_wall_s : 0.0;
  }

  void fail(std::uint64_t packets, std::string why) {
    failed += packets;
    failures.push_back(std::move(why));
  }
};

/// Isolated per-call costs of the public functions a workload's packets go
/// through, fed with that workload's own frames and tables.
struct Microbench {
  double make_release_ns = 0;
  double parse_ns = 0;
  double gen_emit_ns = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One full replay. `traced` builds the topology with spans around every
  /// layer call and switches allocation counting on for the steady region.
  [[nodiscard]] virtual Replay replay(bool traced) = 0;
  /// Layer microbenches of the workload's own frames and generator.
  [[nodiscard]] virtual Microbench microbench() = 0;
  /// Checks that need the run's first replay and are too costly to repeat
  /// per replay (e.g. re-running the lockstep engine at one worker).
  virtual void once_checks(Replay& first) { (void)first; }
  /// True when the steady region runs on the lockstep engine's threads, so
  /// barrier wake-ups rather than single-thread work set its host time.
  [[nodiscard]] virtual bool lockstep() const { return false; }
  /// What the compute probe reads between this workload's replays on a
  /// quiet host. It depends on the workload because a replay leaves the
  /// caches in its own state.
  [[nodiscard]] virtual double compute_probe_nominal_ns() const = 0;
  /// Simulated figures recorded for kDefaultSeed.
  [[nodiscard]] virtual Figures expected() const = 0;
};

/// The named workload, or nullptr when there is none by that name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

}  // namespace perfbench
