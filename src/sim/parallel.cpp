#include "sim/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace flexsfp::sim {

namespace {

/// How long a waiter polls its atomic before parking on the condition
/// variable. A lockstep round that carries a packet or two finishes in a few
/// µs, so the next generation almost always lands inside the spin; an idle
/// or oversubscribed pool still parks instead of burning a core.
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

/// Wait until `ready()` holds: poll it for kSpinBound, then park on `cv`.
/// `ready` reads only atomics; notifiers store them before a lock/unlock of
/// `mutex` and the notify (see notify_waiters), so re-checking under the
/// mutex cannot miss a wake-up.
template <typename Ready>
void spin_then_park(std::mutex& mutex, std::condition_variable& cv,
                    const Ready& ready) {
  const auto start = std::chrono::steady_clock::now();
  while (!ready()) {
    const auto waited = std::chrono::steady_clock::now() - start;
    if (waited < kPauseBound) {
      cpu_relax();
    } else if (waited < kSpinBound) {
      std::this_thread::yield();
    } else {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, ready);
      return;
    }
  }
}

/// Wake everyone parked on `cv` after the caller stored the atomic their
/// predicate reads. The empty critical section orders the store against a
/// waiter that is between its predicate check and its sleep.
void notify_waiters(std::mutex& mutex, std::condition_variable& cv) {
  { const std::lock_guard<std::mutex> lock(mutex); }
  cv.notify_all();
}

}  // namespace

unsigned resolve_threads(std::size_t jobs, unsigned requested) {
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  const unsigned want = requested == 0 ? hardware : requested;
  return static_cast<unsigned>(
      std::min<std::size_t>({jobs == 0 ? 1 : jobs, want, hardware}));
}

void run_lockstep_rounds(std::size_t jobs, unsigned workers,
                         const std::function<void(std::size_t)>& advance,
                         const std::function<bool()>& exchange) {
  if (jobs == 0) return;
  const unsigned pool = resolve_threads(jobs, workers);

  if (pool <= 1) {
    do {
      for (std::size_t i = 0; i < jobs; ++i) advance(i);
    } while (exchange());
    return;
  }

  // Generation barrier shared by the pool. The round counter is the
  // generation: the caller publishes a round with a release increment,
  // workers acquire it, advance their fixed slice of jobs and count down
  // `busy`; the last one out releases the caller, which acquires busy == 0
  // and runs the exchange while every worker waits for the next generation.
  // Those two release/acquire edges are what publish the exchange-phase
  // writes (scheduled boundary events) to the workers and the advance-phase
  // writes back to the caller. The mutex only backs the parked slow path
  // and the rare error record.
  //
  // The polled atomics sit on their own cache lines, away from each other
  // and from the mutex, so a worker counting down `busy` or a notifier
  // taking the mutex does not evict the line the others are polling.
  struct Barrier {
    std::mutex mutex;
    std::condition_variable start;
    std::condition_variable done;
    alignas(kCacheLine) std::atomic<std::uint64_t> round{0};
    std::atomic<bool> stop{false};
    alignas(kCacheLine) std::atomic<unsigned> busy{0};
    alignas(kCacheLine) std::size_t first_error_index = 0;
    std::exception_ptr first_error;
  } barrier;
  barrier.first_error_index = jobs;

  // Thread `t` (the caller is thread 0) owns jobs t, t + pool, ... for the
  // whole run, so a shard's queue, pool and registry stay in one core's
  // cache.
  auto advance_slice = [&](unsigned t) {
    for (std::size_t i = t; i < jobs; i += pool) {
      try {
        advance(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(barrier.mutex);
        if (i < barrier.first_error_index) {
          barrier.first_error_index = i;
          barrier.first_error = std::current_exception();
        }
      }
    }
  };

  auto worker = [&](unsigned t) {
    std::uint64_t seen = 0;
    while (true) {
      spin_then_park(barrier.mutex, barrier.start, [&] {
        return barrier.stop.load(std::memory_order_acquire) ||
               barrier.round.load(std::memory_order_acquire) != seen;
      });
      if (barrier.stop.load(std::memory_order_acquire)) return;
      ++seen;  // the caller waits for busy == 0 before the next generation
      advance_slice(t);
      if (barrier.busy.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        notify_waiters(barrier.mutex, barrier.done);
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(pool - 1);
  for (unsigned t = 1; t < pool; ++t) threads.emplace_back(worker, t);

  const auto shut_down = [&] {
    barrier.stop.store(true, std::memory_order_release);
    notify_waiters(barrier.mutex, barrier.start);
    for (auto& thread : threads) thread.join();
  };

  try {
    bool more = true;
    while (more) {
      barrier.busy.store(pool - 1, std::memory_order_relaxed);
      barrier.round.fetch_add(1, std::memory_order_release);
      notify_waiters(barrier.mutex, barrier.start);
      advance_slice(0);  // the caller thread advances its slice too
      spin_then_park(barrier.mutex, barrier.done, [&] {
        return barrier.busy.load(std::memory_order_acquire) == 0;
      });
      if (barrier.first_error) break;
      more = exchange();  // workers are waiting: cross-shard state is safe
    }
  } catch (...) {
    shut_down();
    throw;
  }
  shut_down();
  if (barrier.first_error) std::rethrow_exception(barrier.first_error);
}

}  // namespace flexsfp::sim
