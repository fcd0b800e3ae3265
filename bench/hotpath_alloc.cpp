// Hot-path allocation audit: drives the full module pipeline (TrafficGen ->
// fault-free link -> PPE running StaticNat -> sink) under a counting global
// allocator and reports allocations/packet of the datapath, with the
// end-of-run registry snapshot counted apart (`snapshot_allocs`). The packet
// pool and the slab event queue exist to push the steady-state figure toward
// zero; this bench is the evidence, and tools/bench_gate.py fails CI when
// it regresses against bench/baselines/. Host cost per packet is
// perfbench's job.
//
// Usage: hotpath_alloc   (takes no arguments)
#include <execinfo.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "apps/nat.hpp"
#include "bench_util.hpp"
#include "fabric/testbed.hpp"

// ---------------------------------------------------------------------------
// Binary-local counting allocator. Every user-code allocation in this
// process funnels through these replacements; the counter is atomic only
// because the contract requires thread safety — this bench is sequential.
//
// Set FLEXSFP_ALLOC_TRACE=N to print a backtrace for every Nth allocation
// made while a measured run() is in flight — the quickest way to find who
// reintroduced a hot-path allocation when the CI gate trips.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<bool> g_tracing{false};
std::uint64_t g_trace_every = 0;  // 0 = off; read once from the environment
thread_local bool g_in_trace = false;

void maybe_trace(std::uint64_t serial) {
  if (g_trace_every == 0 || !g_tracing.load(std::memory_order_relaxed)) {
    return;
  }
  if (serial % g_trace_every != 0 || g_in_trace) return;
  g_in_trace = true;  // backtrace() itself allocates on first use
  void* frames[16];
  const int depth = backtrace(frames, 16);
  std::fprintf(stderr, "--- allocation #%llu ---\n",
               static_cast<unsigned long long>(serial));
  backtrace_symbols_fd(frames, depth, 2);
  g_in_trace = false;
}
}  // namespace

void* operator new(std::size_t size) {
  maybe_trace(g_allocations.fetch_add(1, std::memory_order_relaxed));
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
// ---------------------------------------------------------------------------

int main(int argc, char** argv) {
  using namespace flexsfp;
  using namespace flexsfp::sim;

  bench::max_args(argc, argv, 0, "");
  if (const char* every = std::getenv("FLEXSFP_ALLOC_TRACE")) {
    g_trace_every = std::strtoull(every, nullptr, 10);
  }

  bench::title("Hot-path audit — allocations/packet");
  std::printf("%-10s %12s %14s %14s %10s\n", "frame", "packets", "events",
              "allocs/pkt", "snapshot");
  bench::rule(67);

  obs::MetricSnapshot all_frames;
  bench::Figures figures;
  double worst_allocs_per_packet = 0;
  std::uint64_t events_total = 0;
  std::uint64_t worst_snapshot_allocs = 0;

  for (const std::size_t frame : {64, 512, 1518}) {
    // Longer horizon than nat_linerate so steady state dominates setup.
    fabric::TestbedConfig config;
    fabric::TrafficSpec spec;
    spec.rate = DataRate::gbps(10);
    spec.fixed_size = frame;
    spec.duration = 2_ms;
    config.edge_traffic = spec;

    auto nat = std::make_unique<apps::StaticNat>();
    for (std::uint32_t i = 0; i < 1024; ++i) {
      nat->add_mapping(net::Ipv4Address{0x0a000000u + i},
                       net::Ipv4Address{0xcb007100u + i});
    }
    fabric::ModuleTestbed testbed(std::move(config), std::move(nat));

    // Count only what run() allocates: the construction above (tables,
    // registry, pool reserve) is setup, not the hot path.
    const std::uint64_t allocs_before =
        g_allocations.load(std::memory_order_relaxed);
    g_tracing.store(true, std::memory_order_relaxed);
    const auto result = testbed.run();
    g_tracing.store(false, std::memory_order_relaxed);
    const std::uint64_t run_allocs =
        g_allocations.load(std::memory_order_relaxed) - allocs_before;
    // run() ends with a snapshot of the registry. One more snapshot of the
    // same, now idle registry allocates what that one did; it is reported
    // on its own and taken out of the datapath's count.
    const std::uint64_t snapshot_before =
        g_allocations.load(std::memory_order_relaxed);
    const obs::MetricSnapshot idle = testbed.sim().metrics().snapshot();
    const std::uint64_t snapshot_allocs =
        g_allocations.load(std::memory_order_relaxed) - snapshot_before;
    const std::uint64_t allocs =
        run_allocs - std::min(run_allocs, snapshot_allocs);
    const std::uint64_t events = testbed.sim().executed_events();
    const std::uint64_t packets = result.edge_to_optical.sent_packets;
    all_frames.merge(result.metrics.with_label("frame", std::to_string(frame)));

    const double allocs_per_packet =
        packets > 0 ? double(allocs) / double(packets) : 0;
    std::printf("%7zu B %12llu %14llu %14.3f %10llu\n", frame,
                static_cast<unsigned long long>(packets),
                static_cast<unsigned long long>(events), allocs_per_packet,
                static_cast<unsigned long long>(snapshot_allocs));
    worst_snapshot_allocs = std::max(worst_snapshot_allocs, snapshot_allocs);
    worst_allocs_per_packet =
        std::max(worst_allocs_per_packet, allocs_per_packet);
    events_total += events;
    figures.emplace_back("allocs_per_packet_" + std::to_string(frame),
                         allocs_per_packet);
  }
  bench::rule(67);

  std::printf("total: %llu events, worst allocs/pkt %.3f, end-of-run "
              "snapshot %llu allocs\n",
              static_cast<unsigned long long>(events_total),
              worst_allocs_per_packet,
              static_cast<unsigned long long>(worst_snapshot_allocs));
  figures.emplace_back("events_total", double(events_total));
  figures.emplace_back("allocs_per_packet", worst_allocs_per_packet);
  figures.emplace_back("snapshot_allocs", double(worst_snapshot_allocs));
  bench::write_bench_json("hotpath_alloc", all_frames, figures);
  bench::note(
      "allocations/packet is machine-independent and gated strictly by "
      "tools/bench_gate.py.");
  return 0;
}
