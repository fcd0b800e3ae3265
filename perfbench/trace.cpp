// Clocks, peak RSS, the counting allocator and the per-thread span tables.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <new>

#include "bench.hpp"

// --- counting allocator -------------------------------------------------------
// Replaces the global operator new of the benchmark binary. Counting costs
// one relaxed load per allocation while off; the traced run switches it on
// around its steady region to measure net.allocs_per_pkt.

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_malloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: ru_maxrss keeps the high-water mark
  // of the process image before exec, so under run.py it would read the
  // Python launcher's RSS whenever that is the larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t counted_allocs() {
  return g_allocs.load(std::memory_order_relaxed);
}

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::sfp_inject: return "sfp.inject";
    case SpanKind::app_nat: return "apps.nat.process";
    case SpanKind::app_softwire_down: return "apps.softwire.process_down";
    case SpanKind::app_softwire_up: return "apps.softwire.process_up";
    case SpanKind::sink: return "fabric.sink";
    case SpanKind::add_binding: return "apps.softwire.add_binding";
    case SpanKind::remove_binding: return "apps.softwire.remove_binding";
    case SpanKind::count: break;
  }
  return "?";
}

// --- spans ----------------------------------------------------------------------

namespace {

constexpr std::size_t kMaxDepth = 16;

/// One thread's span totals plus its stack of open spans' child time.
struct ThreadSpans {
  SpanTable table{};
  std::array<std::int64_t, kMaxDepth> child_ns{};
  std::size_t depth = 0;
};

// Every thread that ever opened a span keeps its table here until the
// process ends, so worker threads of the lockstep engine can exit before
// main.cpp collects their spans.
std::mutex g_threads_mutex;
std::vector<std::unique_ptr<ThreadSpans>> g_threads;

ThreadSpans& local_spans() {
  thread_local ThreadSpans* local = nullptr;
  if (local == nullptr) {
    auto owned = std::make_unique<ThreadSpans>();
    local = owned.get();
    const std::lock_guard<std::mutex> lock(g_threads_mutex);
    g_threads.push_back(std::move(owned));
  }
  return *local;
}

}  // namespace

Span::Span(SpanKind kind) : kind_(kind) {
  ThreadSpans& spans = local_spans();
  if (spans.depth < kMaxDepth) spans.child_ns[spans.depth] = 0;
  ++spans.depth;
  start_ = now_ns();
}

Span::~Span() {
  const std::int64_t duration = now_ns() - start_;
  ThreadSpans& spans = local_spans();
  --spans.depth;
  SpanTotals& totals = spans.table[static_cast<std::size_t>(kind_)];
  ++totals.calls;
  totals.total_ns += duration;
  if (spans.depth < kMaxDepth) totals.child_ns += spans.child_ns[spans.depth];
  if (spans.depth > 0 && spans.depth - 1 < kMaxDepth) {
    spans.child_ns[spans.depth - 1] += duration;
  }
}

SpanTable collect_spans() {
  SpanTable out{};
  const std::lock_guard<std::mutex> lock(g_threads_mutex);
  for (auto& thread : g_threads) {
    for (std::size_t k = 0; k < out.size(); ++k) {
      out[k].calls += thread->table[k].calls;
      out[k].total_ns += thread->table[k].total_ns;
      out[k].child_ns += thread->table[k].child_ns;
    }
    thread->table = SpanTable{};
  }
  return out;
}

double span_overhead_ns() {
  (void)collect_spans();
  constexpr int kSpans = 200'000;
  for (int i = 0; i < kSpans; ++i) {
    const Span span(SpanKind::sink);
  }
  return double(collect_spans()[static_cast<std::size_t>(SpanKind::sink)].total_ns) /
         kSpans;
}

}  // namespace perfbench
