#include "sim/parallel.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace flexsfp::sim {

namespace {

/// How long a waiter polls before parking on the condition variable. A
/// lockstep round that carries a packet or two finishes in a few µs, so the
/// other threads almost always publish inside the spin; an idle or
/// oversubscribed pool still parks instead of burning a core.
constexpr auto kSpinBound = std::chrono::microseconds(50);
/// Past this much of the spin, each poll yields the CPU instead of pausing.
/// Without it, two threads the scheduler placed on one core settle into a
/// stable mode where each spins out its whole bound while the thread it
/// waits for cannot run, then parks: about 2 × kSpinBound per round.
constexpr auto kPauseBound = std::chrono::microseconds(2);
constexpr std::size_t kCacheLine = 64;

/// The CPU's spin-wait hint (x86 `pause`, aarch64 `yield`); a plain spin on
/// targets without one.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

[[nodiscard]] TimePs horizon_after(TimePs earliest, TimePs lookahead) {
  return earliest == time_horizon ? time_horizon
                                  : saturating_add(earliest, lookahead);
}

/// What one thread tells the others at the end of each round. Only its
/// owner writes it. `earliest` and `failed` are indexed by round parity:
/// a thread may finish round r + 1 and write its values while a slower
/// thread still reads round r's, but it cannot reach round r + 2 before
/// every thread has published r + 1, i.e. finished reading round r.
struct alignas(kCacheLine) Slot {
  /// The last round this thread finished. Its store publishes `earliest`,
  /// `failed` and everything the thread's advance bodies wrote.
  std::atomic<std::uint64_t> round{0};
  std::array<TimePs, 2> earliest{};
  std::array<bool, 2> failed{};
};

/// The lowest-indexed job that threw on one thread, and its exception.
struct Failure {
  std::size_t index = 0;
  std::exception_ptr error;
};

}  // namespace

unsigned resolve_threads(std::size_t jobs, unsigned requested) {
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  const unsigned want = requested == 0 ? hardware : requested;
  return static_cast<unsigned>(
      std::min<std::size_t>({jobs == 0 ? 1 : jobs, want, hardware}));
}

std::uint64_t run_lockstep_rounds(std::size_t jobs, unsigned workers,
                                  TimePs lookahead, TimePs first_horizon,
                                  const LockstepAdvance& advance) {
  if (jobs == 0) return 0;
  const unsigned pool = resolve_threads(jobs, workers);

  if (pool <= 1) {
    std::uint64_t rounds = 0;
    TimePs horizon = first_horizon;
    do {
      ++rounds;
      TimePs earliest = time_horizon;
      for (std::size_t i = 0; i < jobs; ++i) {
        earliest = std::min(earliest, advance(i, horizon));
      }
      horizon = horizon_after(earliest, lookahead);
    } while (horizon != time_horizon);
    return rounds;
  }

  std::vector<Slot> slots(pool);
  std::vector<Failure> failures(pool);
  // The parked path. A waiter counts itself in `parked` before it checks
  // its slot under the mutex; a publisher stores its round before it reads
  // `parked`. Both sides are sequentially consistent, so either the waiter
  // sees the round or the publisher sees the waiter and notifies under the
  // mutex: no wake-up is lost, and no publisher touches the mutex while
  // nobody sleeps.
  struct alignas(kCacheLine) Parking {
    std::atomic<unsigned> parked{0};
    std::mutex mutex;
    std::condition_variable wake;
  } parking;

  // Wait until `slot` shows `round`: poll with the CPU hint, then yield,
  // then park. `waiting_since` is when this thread began waiting in this
  // round (unset until it first has to), so the bounds cover the whole
  // wait, not each slot's share of it.
  using Clock = std::chrono::steady_clock;
  const auto wait_for = [&parking](const Slot& slot, std::uint64_t round,
                                   std::optional<Clock::time_point>&
                                       waiting_since) {
    const auto arrived = [&] {
      return slot.round.load(std::memory_order_acquire) >= round;
    };
    if (arrived()) return;
    if (!waiting_since) waiting_since = Clock::now();
    while (!arrived()) {
      const auto waited = Clock::now() - *waiting_since;
      if (waited < kPauseBound) {
        cpu_relax();
      } else if (waited < kSpinBound) {
        std::this_thread::yield();
      } else {
        parking.parked.fetch_add(1, std::memory_order_seq_cst);
        {
          std::unique_lock<std::mutex> lock(parking.mutex);
          parking.wake.wait(lock, [&] {
            return slot.round.load(std::memory_order_seq_cst) >= round;
          });
        }
        parking.parked.fetch_sub(1, std::memory_order_relaxed);
        return;
      }
    }
  };

  // Thread `t` (the caller is thread 0) owns jobs t, t + pool, ... for the
  // whole run. Every thread leaves after the same round: the stop decision
  // is a function of the published slots alone.
  const auto run_thread = [&](unsigned t) -> std::uint64_t {
    Slot& mine = slots[t];
    TimePs horizon = first_horizon;
    for (std::uint64_t round = 1;; ++round) {
      const unsigned parity = round & 1;
      TimePs earliest = time_horizon;
      bool failed = false;
      for (std::size_t i = t; i < jobs; i += pool) {
        try {
          earliest = std::min(earliest, advance(i, horizon));
        } catch (...) {
          if (!failed) failures[t] = Failure{i, std::current_exception()};
          failed = true;
        }
      }
      mine.earliest[parity] = earliest;
      mine.failed[parity] = failed;
      mine.round.store(round, std::memory_order_seq_cst);
      if (parking.parked.load(std::memory_order_seq_cst) != 0) {
        { const std::lock_guard<std::mutex> lock(parking.mutex); }
        parking.wake.notify_all();
      }

      std::optional<Clock::time_point> waiting_since;
      for (unsigned u = 0; u < pool; ++u) {
        if (u == t) continue;
        const Slot& other = slots[u];
        wait_for(other, round, waiting_since);
        earliest = std::min(earliest, other.earliest[parity]);
        failed = failed || other.failed[parity];
      }
      horizon = horizon_after(earliest, lookahead);
      if (failed || horizon == time_horizon) return round;
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(pool - 1);
  for (unsigned t = 1; t < pool; ++t) {
    threads.emplace_back([&run_thread, t] { (void)run_thread(t); });
  }
  const std::uint64_t rounds = run_thread(0);
  for (auto& thread : threads) thread.join();

  const Failure* first = nullptr;
  for (const Failure& failure : failures) {
    if (failure.error && (first == nullptr || failure.index < first->index)) {
      first = &failure;
    }
  }
  if (first != nullptr) std::rethrow_exception(first->error);
  return rounds;
}

}  // namespace flexsfp::sim
