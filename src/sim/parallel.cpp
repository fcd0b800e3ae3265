#include "sim/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace flexsfp::sim {

unsigned resolve_workers(std::size_t jobs, unsigned requested) {
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  const unsigned want = requested == 0 ? hardware : requested;
  return static_cast<unsigned>(
      std::min<std::size_t>(jobs == 0 ? 1 : jobs, want));
}

unsigned resolve_threads(std::size_t jobs, unsigned requested) {
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  return std::min(resolve_workers(jobs, requested), hardware);
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
  // generation: workers sleep until it moves, drain the ticket, then report
  // in; the caller thread flips the generation, drains tickets itself,
  // waits for busy == 0, and runs the exchange while everyone is parked.
  // The mutex around the round/busy handshake is what publishes the
  // caller's exchange-phase writes (scheduled boundary events) to the
  // workers, and the workers' advance-phase writes back to the caller.
  struct Barrier {
    std::mutex mutex;
    std::condition_variable start;
    std::condition_variable done;
    std::uint64_t round = 0;
    unsigned busy = 0;
    bool stop = false;
    std::atomic<std::size_t> ticket{0};
    std::size_t first_error_index = 0;
    std::exception_ptr first_error;
  } barrier;
  barrier.first_error_index = jobs;

  auto drain = [&] {
    while (true) {
      const std::size_t i =
          barrier.ticket.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs) return;
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

  auto worker = [&] {
    std::uint64_t seen = 0;
    while (true) {
      std::unique_lock<std::mutex> lock(barrier.mutex);
      barrier.start.wait(lock,
                         [&] { return barrier.stop || barrier.round != seen; });
      if (barrier.stop) return;
      seen = barrier.round;
      lock.unlock();
      drain();
      lock.lock();
      if (--barrier.busy == 0) barrier.done.notify_one();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(pool - 1);
  for (unsigned t = 1; t < pool; ++t) threads.emplace_back(worker);

  const auto shut_down = [&] {
    {
      const std::lock_guard<std::mutex> lock(barrier.mutex);
      barrier.stop = true;
    }
    barrier.start.notify_all();
    for (auto& thread : threads) thread.join();
  };

  try {
    bool more = true;
    while (more) {
      barrier.ticket.store(0, std::memory_order_relaxed);
      {
        const std::lock_guard<std::mutex> lock(barrier.mutex);
        barrier.busy = pool - 1;
        ++barrier.round;
      }
      barrier.start.notify_all();
      drain();  // the caller thread advances shards too
      {
        std::unique_lock<std::mutex> lock(barrier.mutex);
        barrier.done.wait(lock, [&] { return barrier.busy == 0; });
      }
      if (barrier.first_error) break;
      more = exchange();  // workers are parked: cross-shard state is safe
    }
  } catch (...) {
    shut_down();
    throw;
  }
  shut_down();
  if (barrier.first_error) std::rethrow_exception(barrier.first_error);
}

}  // namespace flexsfp::sim
