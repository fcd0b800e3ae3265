// The host speed probes (see bench.hpp). Neither kernel calls the library,
// so a change to the library cannot move them.
#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {

namespace {

/// A small discrete-event loop with the host profile of the simulator: a
/// binary-heap event queue, virtual dispatch over many handler types, frame
/// copies out of a buffer pool, a header checksum and a hash-table lookup
/// per event. Its state persists across calls, so every pass starts from
/// the same queue depth.
class ComputeKernel {
 public:
  ComputeKernel() {
    for (std::size_t size : {64, 594, 1518, 128}) {
      std::vector<std::uint8_t> frame(size);
      for (std::size_t i = 0; i < size; ++i) frame[i] = std::uint8_t(i * 7);
      templates_.push_back(std::move(frame));
    }
    add_handlers(std::make_index_sequence<kHandlers>{});
    for (std::uint64_t i = 0; i < kTable; ++i) table_[key(i)] = std::uint32_t(i);
    pool_.resize(kPool);
    for (std::size_t i = 0; i < kDepth; ++i) schedule();
  }

  /// Runs kEvents events; returns a value that depends on all of them.
  std::uint64_t pass() {
    std::uint64_t acc = 0;
    for (std::size_t n = 0; n < kEvents; ++n) {
      const Event e = queue_.top();
      queue_.pop();
      now_ = e.time;
      std::vector<std::uint8_t> frame = std::move(pool_.back());
      pool_.pop_back();
      const std::vector<std::uint8_t>& tmpl = templates_[e.tag % templates_.size()];
      frame.assign(tmpl.begin(), tmpl.end());
      acc += handlers_[(e.tag >> 3) % handlers_.size()]->run(
          frame, key(e.tag % kTable), table_);
      pool_.push_back(std::move(frame));
      schedule();
    }
    return acc;
  }

 private:
  static constexpr std::size_t kEvents = 400;
  static constexpr std::size_t kDepth = 512;
  static constexpr std::size_t kPool = 64;
  static constexpr std::uint64_t kTable = 1024;
  /// Distinct handler bodies: together over 100 KB of code reached through
  /// unpredictable indirect calls, like the simulator's many small
  /// components, so the probe feels the instruction-cache and
  /// branch-predictor pressure of a busy sibling hyperthread as the
  /// simulator does.
  static constexpr std::size_t kHandlers = 1024;
  using Table = std::unordered_map<std::uint64_t, std::uint32_t>;

  struct Event {
    std::uint64_t time, seq;
    std::uint32_t tag;
    bool operator>(const Event& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  struct HandlerBase {
    virtual ~HandlerBase() = default;
    virtual std::uint64_t run(std::vector<std::uint8_t>& frame,
                              std::uint64_t key, const Table& table) = 0;
  };

  template <std::size_t K>
  struct Handler final : HandlerBase {
    std::uint64_t run(std::vector<std::uint8_t>& frame, std::uint64_t key,
                      const Table& table) override {
      const auto it = table.find(key);
      const std::uint32_t value = it == table.end() ? 0 : it->second;
      frame[26 + K % 8] = std::uint8_t(value * (2 * K + 1));
      frame[30 + K % 3] ^= std::uint8_t(key >> (K % 29));
      std::uint32_t sum = K;
      for (std::size_t i = 14; i < 34 + 2 * (K % 16); i += 2) {
        sum += (frame[i] << 8) | frame[i + 1];
      }
      while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
      frame[24] = std::uint8_t(~sum >> 8);
      frame[25] = std::uint8_t(~sum);
      return value + sum * (K | 1) + frame.size();
    }
  };

  template <std::size_t... K>
  void add_handlers(std::index_sequence<K...>) {
    (handlers_.push_back(std::make_unique<Handler<K>>()), ...);
  }

  static std::uint64_t key(std::uint64_t i) { return i * 0x9e3779b97f4a7c15ull; }

  void schedule() {
    rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
    queue_.push({now_ + (rng_ >> 50), seq_++, std::uint32_t(rng_ >> 40)});
  }

  std::vector<std::vector<std::uint8_t>> templates_;
  std::vector<std::unique_ptr<HandlerBase>> handlers_;
  Table table_;
  std::vector<std::vector<std::uint8_t>> pool_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  std::uint64_t now_ = 0, seq_ = 0, rng_ = 99;
};

volatile std::uint64_t g_probe_sink = 0;

}  // namespace

double compute_probe_ns() {
  static ComputeKernel kernel;
  // The first pass brings the kernel's state back into cache after a
  // replay evicted it; only the second is timed.
  g_probe_sink = kernel.pass();
  const std::int64_t start = now_ns();
  g_probe_sink = kernel.pass();
  return double(now_ns() - start);
}

double wake_probe_ns() {
  constexpr int kWarmTrips = 5, kTrips = 50;
  std::mutex mutex;
  std::condition_variable cv;
  bool ping = false, stop = false;
  std::thread partner([&] {
    std::unique_lock<std::mutex> lock(mutex);
    while (true) {
      cv.wait(lock, [&] { return ping || stop; });
      if (stop) return;
      ping = false;
      cv.notify_all();
    }
  });
  const auto trips = [&](int n) {
    std::unique_lock<std::mutex> lock(mutex);
    for (int i = 0; i < n; ++i) {
      ping = true;
      cv.notify_all();
      cv.wait(lock, [&] { return !ping; });
    }
  };
  trips(kWarmTrips);
  const std::int64_t start = now_ns();
  trips(kTrips);
  const double elapsed = double(now_ns() - start);
  {
    const std::lock_guard<std::mutex> lock(mutex);
    stop = true;
  }
  cv.notify_all();
  partner.join();
  return elapsed;
}

}  // namespace perfbench
