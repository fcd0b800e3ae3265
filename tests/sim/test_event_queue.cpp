// Property tests for the slab-node heap event queue against a naive
// sorted-vector oracle, plus the time-horizon saturation contract.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace flexsfp::sim {
namespace {

/// The reference semantics: a stable-sorted list of (time, insertion-order)
/// entries. Everything the heap does — sifting, slab reuse, inline and
/// boxed closures — must be invisible next to this.
class OracleQueue {
 public:
  void push(TimePs at, int tag) { entries_.push_back({at, next_seq_++, tag}); }

  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Pop the earliest (time, seq) entry.
  [[nodiscard]] std::pair<TimePs, int> pop() {
    auto best = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->at < best->at || (it->at == best->at && it->seq < best->seq)) {
        best = it;
      }
    }
    const auto result = std::pair{best->at, best->tag};
    entries_.erase(best);
    return result;
  }

 private:
  struct Entry {
    TimePs at;
    std::uint64_t seq;
    int tag;
  };
  std::vector<Entry> entries_;
  std::uint64_t next_seq_ = 0;
};

TEST(EventQueueProperty, RandomSchedulesMatchOracle) {
  // Several seeds, each a random interleaving of pushes and pops with time
  // offsets from exact ties to seconds out, then a deep phase that holds
  // 4,096 events pending over a millisecond horizon.
  constexpr std::array<TimePs, 6> spans = {
      1,            // exact ties
      10'000,       // sub-packet gaps
      1'000'000,    // about a microsecond
      100'000'000,  // a tenth of a millisecond
      10'000'000'000,     // tens of milliseconds
      5'000'000'000'000,  // seconds
  };
  constexpr int kDeep = 4096;              // events held pending
  constexpr TimePs kDeepSpan = 1'000'000'000;  // 1 ms horizon
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    EventQueue queue;
    OracleQueue oracle;
    std::mt19937_64 rng(seed);
    TimePs now = 0;  // mirror the Simulation clamp: never push before "now"
    int next_tag = 0;
    std::vector<int> queue_order;
    std::vector<int> oracle_order;

    for (int step = 0; step < 4000; ++step) {
      const bool push = queue.empty() || (rng() % 100) < 60;
      if (push) {
        const TimePs at =
            now + static_cast<TimePs>(rng() % std::uint64_t(
                                                  spans[rng() % spans.size()]));
        const int tag = next_tag++;
        queue.push(at, [tag, &queue_order]() { queue_order.push_back(tag); });
        oracle.push(at, tag);
      } else {
        auto popped = queue.pop();
        const auto [oracle_at, oracle_tag] = oracle.pop();
        ASSERT_EQ(popped.at(), oracle_at) << "seed " << seed;
        popped.invoke();
        oracle_order.push_back(oracle_tag);
        ASSERT_EQ(queue_order.back(), oracle_tag) << "seed " << seed;
        now = popped.at();
      }
    }
    const auto pop_both = [&] {
      auto popped = queue.pop();
      const auto [oracle_at, oracle_tag] = oracle.pop();
      ASSERT_EQ(popped.at(), oracle_at) << "seed " << seed;
      popped.invoke();
      oracle_order.push_back(oracle_tag);
      ASSERT_EQ(queue_order.back(), oracle_tag) << "seed " << seed;
      now = popped.at();
    };
    // Deep phase: fill to kDeep pending, then pop one and push one per
    // step so the heap stays that deep while the clock crosses the span.
    const auto push_deep = [&] {
      const TimePs at =
          now + static_cast<TimePs>(rng() % std::uint64_t(kDeepSpan));
      const int tag = next_tag++;
      queue.push(at, [tag, &queue_order]() { queue_order.push_back(tag); });
      oracle.push(at, tag);
    };
    while (queue.size() < std::size_t(kDeep)) push_deep();
    for (int step = 0; step < kDeep; ++step) {
      pop_both();
      if (HasFatalFailure()) return;
      push_deep();
    }
    while (!queue.empty()) {
      pop_both();
      if (HasFatalFailure()) return;
    }
    EXPECT_TRUE(oracle.empty());
    EXPECT_EQ(queue_order, oracle_order) << "seed " << seed;
  }
}

TEST(EventQueueProperty, SameTimestampPopsInInsertionOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    queue.push(42_ns, [i, &order]() { order.push_back(i); });
  }
  while (!queue.empty()) {
    auto popped = queue.pop();
    EXPECT_EQ(popped.at(), 42_ns);
    popped.invoke();
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueProperty, FarFutureEventSurvivesBusyForeground) {
  // A far-future event must execute in order while a continuously
  // rescheduling foreground stream runs up to and past it (the
  // fault-injector flap-end timer pattern).
  EventQueue queue;
  std::vector<int> order;
  const TimePs far = 200'000'000;  // 2,000 stream periods out
  queue.push(far, [&order]() { order.push_back(-1); });

  // A self-rescheduling stream keeps one near event pending throughout.
  struct Stream {
    EventQueue& queue;
    std::vector<int>& order;
    TimePs period;
    TimePs until;
    void schedule(TimePs at) {
      queue.push(at, [this, at]() {
        order.push_back(1);
        if (at + period <= until) schedule(at + period);
      });
    }
  };
  Stream stream{queue, order, 100'000, 2 * far};
  stream.schedule(0);

  TimePs last = 0;
  std::vector<TimePs> pop_times;
  while (!queue.empty()) {
    auto popped = queue.pop();
    ASSERT_GE(popped.at(), last);
    last = popped.at();
    pop_times.push_back(popped.at());
    popped.invoke();
  }
  // The far event must have run at its own timestamp, i.e. interleaved at
  // the right position, not after the stream drained.
  const auto it = std::find(order.begin(), order.end(), -1);
  ASSERT_NE(it, order.end());
  const auto index = static_cast<std::size_t>(it - order.begin());
  EXPECT_EQ(pop_times[index], far);
  EXPECT_GT(order.size(), index + 10) << "far event ran last, not in order";
}

TEST(EventQueueProperty, SparseHorizonPopsInOrder) {
  EventQueue queue;
  int fired = 0;
  // A handful of events spread across seconds, each 4x further out than
  // the last.
  for (int i = 0; i < 8; ++i) {
    queue.push(TimePs{1} << (30 + 2 * i), [&fired]() { ++fired; });
  }
  TimePs last = 0;
  while (!queue.empty()) {
    auto popped = queue.pop();
    ASSERT_GE(popped.at(), last);
    last = popped.at();
    popped.invoke();
  }
  EXPECT_EQ(fired, 8);
}

TEST(EventQueueProperty, OversizeClosureTakesBoxedPathAndStillRuns) {
  EventQueue queue;
  std::array<std::uint64_t, 16> big{};  // 128 bytes > kInlineClosure
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i * 3 + 1;
  std::uint64_t sum = 0;
  queue.push(1_ns, [big, &sum]() {
    for (const auto v : big) sum += v;
  });
  queue.push(2_ns, [&sum]() { sum += 1000; });
  EXPECT_EQ(queue.stats().boxed_closures, 1u);
  EXPECT_EQ(queue.stats().inline_closures, 1u);
  while (!queue.empty()) {
    auto popped = queue.pop();
    popped.invoke();
  }
  EXPECT_EQ(sum, 3u * (15u * 16u / 2u) + 16u + 1000u);  // sum(3i+1) + 1000
}

TEST(EventQueueProperty, DroppedWithoutInvokeDestroysClosure) {
  // Popped without invoke() must still destroy the captured state (the
  // destructor path), and destroying a non-empty queue must destroy every
  // pending closure.
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  {
    EventQueue queue;
    queue.push(1_ns, [token]() {});
    token.reset();
    EXPECT_FALSE(watch.expired());
    { auto popped = queue.pop(); }  // dropped, never invoked
    EXPECT_TRUE(watch.expired());
  }
  auto token2 = std::make_shared<int>(8);
  std::weak_ptr<int> watch2 = token2;
  {
    EventQueue queue;
    queue.push(5_us, [token2]() {});
    token2.reset();
    EXPECT_FALSE(watch2.expired());
  }  // queue destroyed with the event still pending
  EXPECT_TRUE(watch2.expired());
}

TEST(SimulationClamp, PastEventsRunAtNow) {
  Simulation sim;
  std::vector<TimePs> at;
  sim.schedule_at(100_ns, [&]() {
    // Scheduled "in the past" from t = 100 ns: must run at now, not before.
    sim.schedule_at(10_ns, [&]() { at.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(at.size(), 1u);
  EXPECT_EQ(at[0], 100_ns);
}

TEST(SimulationClamp, RunUntilBoundaryIsInclusive) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(10_ns, [&fired]() { ++fired; });
  sim.schedule_at(20_ns, [&fired]() { ++fired; });
  sim.schedule_at(40_ns, [&fired]() { ++fired; });
  EXPECT_EQ(sim.run_until(20_ns), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20_ns);
  // An idle deadline still advances the clock.
  EXPECT_EQ(sim.run_until(30_ns), 0u);
  EXPECT_EQ(sim.now(), 30_ns);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 3);
}

TEST(SimulationClamp, ScheduleInSaturatesAtHorizonInsteadOfWrapping) {
  // Regression: near the TimePs horizon, now + delay used to wrap negative
  // and the "practically forever" timer fired immediately (or crashed the
  // queue's ordering). It must clamp to time_horizon and stay last.
  EXPECT_EQ(saturating_add(time_horizon, 1), time_horizon);
  EXPECT_EQ(saturating_add(time_horizon - 5, 10), time_horizon);
  EXPECT_EQ(saturating_add(1, time_horizon), time_horizon);
  EXPECT_EQ(saturating_add(0, 7), 7);

  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(1_ms, [&]() {
    sim.schedule_in(time_horizon, [&order]() { order.push_back(2); });
    sim.schedule_in(1_ms, [&order]() { order.push_back(1); });
  });
  sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // the finite timer fires first...
  EXPECT_EQ(order[1], 2);  // ...the saturated one fires at the horizon
  EXPECT_EQ(sim.now(), time_horizon);
}

TEST(SimulationClamp, RunUntilHorizonTerminates) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(time_horizon, [&fired]() { ++fired; });
  EXPECT_EQ(sim.run_until(time_horizon), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), time_horizon);
}

TEST(EventQueueStats, TalliesAreConsistent) {
  EventQueue queue;
  for (int i = 0; i < 300; ++i) {
    queue.push(TimePs{i} * 1_ns, []() {});
  }
  EXPECT_EQ(queue.stats().pushed, 300u);
  EXPECT_EQ(queue.stats().pending_high_watermark, 300u);
  EXPECT_EQ(queue.stats().inline_closures, 300u);
  EXPECT_GE(queue.stats().slabs_allocated, 1u);
  EXPECT_EQ(queue.size(), 300u);
  while (!queue.empty()) {
    auto popped = queue.pop();
    popped.invoke();
  }
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.stats().pending_high_watermark, 300u);
}

}  // namespace
}  // namespace flexsfp::sim
