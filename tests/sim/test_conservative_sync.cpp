// The conservative-sync primitives: bounded windows on one Simulation
// (run_before / next_event_time) and the lockstep round engine that drives
// many of them from a persistent worker pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/parallel.hpp"
#include "sim/simulation.hpp"

namespace flexsfp::sim {
namespace {

TEST(RunBefore, ExecutesStrictlyBeforeTheHorizonThenAdvancesNow) {
  Simulation sim;
  std::vector<int> fired;
  sim.schedule_at(10, [&] { fired.push_back(10); });
  sim.schedule_at(99, [&] { fired.push_back(99); });
  sim.schedule_at(100, [&] { fired.push_back(100); });
  sim.schedule_at(150, [&] { fired.push_back(150); });

  EXPECT_EQ(sim.run_before(100), 2u);  // 10 and 99; 100 is NOT < 100
  EXPECT_EQ(sim.now(), 100);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[1], 99);
  EXPECT_EQ(sim.next_event_time(), 100);

  EXPECT_EQ(sim.run_before(200), 2u);
  EXPECT_EQ(sim.now(), 200);
  EXPECT_EQ(fired.size(), 4u);
}

TEST(RunBefore, AdvancesNowEvenWhenTheQueueIsEmpty) {
  Simulation sim;
  EXPECT_EQ(sim.run_before(5'000), 0u);
  EXPECT_EQ(sim.now(), 5'000);
  // A shard that reached T can never travel back before T.
  EXPECT_EQ(sim.run_before(1'000), 0u);
  EXPECT_EQ(sim.now(), 5'000);
}

TEST(RunBefore, EventsScheduledInsideTheWindowStillRun) {
  Simulation sim;
  int cascades = 0;
  sim.schedule_at(10, [&] {
    sim.schedule_in(5, [&] { ++cascades; });   // t = 15, inside
    sim.schedule_in(200, [&] { ++cascades; });  // t = 210, outside
  });
  EXPECT_EQ(sim.run_before(100), 2u);
  EXPECT_EQ(cascades, 1);
  EXPECT_EQ(sim.next_event_time(), 210);
}

TEST(NextEventTime, ReportsTheHorizonSentinelWhenEmpty) {
  Simulation sim;
  EXPECT_EQ(sim.next_event_time(), time_horizon);
  sim.schedule_at(42, [] {});
  EXPECT_EQ(sim.next_event_time(), 42);
}

TEST(ResolveThreads, NeverExceedsHardwareOrJobCount) {
  const unsigned hardware =
      std::max(1u, std::thread::hardware_concurrency());
  EXPECT_LE(resolve_threads(64, 0), hardware);
  EXPECT_LE(resolve_threads(64, 4 * hardware), hardware);
  EXPECT_EQ(resolve_threads(2, 16), std::min(2u, hardware));
  EXPECT_GE(resolve_threads(8, 1), 1u);
}

TEST(RunLockstepRounds, RunsEveryJobOncePerRoundUntilExchangeStops) {
  constexpr std::size_t jobs = 5;
  constexpr int rounds = 7;
  std::vector<std::atomic<int>> hits(jobs);
  int exchanges = 0;
  run_lockstep_rounds(
      jobs, 4, [&](std::size_t i) { hits[i].fetch_add(1); },
      [&] { return ++exchanges < rounds; });
  EXPECT_EQ(exchanges, rounds);
  for (const auto& h : hits) EXPECT_EQ(h.load(), rounds);
}

TEST(RunLockstepRounds, ExchangeSeesEveryAdvanceOfItsRound) {
  // The barrier must order all advance bodies before the exchange step:
  // every round checks that exactly `jobs` new increments landed.
  constexpr std::size_t jobs = 8;
  std::vector<std::atomic<int>> hits(jobs);
  int round = 0;
  bool ordered = true;
  run_lockstep_rounds(
      jobs, 3, [&](std::size_t i) { hits[i].fetch_add(1); },
      [&] {
        ++round;
        for (const auto& h : hits) ordered = ordered && h.load() == round;
        return round < 5;
      });
  EXPECT_TRUE(ordered);
}

TEST(RunLockstepRounds, SequentialPathAdvancesInIndexOrder) {
  std::vector<std::size_t> order;
  run_lockstep_rounds(
      4, 1, [&](std::size_t i) { order.push_back(i); },
      [&] { return order.size() < 8; });
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i % 4);
  }
}

TEST(RunLockstepRounds, PropagatesTheLowestIndexedAdvanceError) {
  for (const unsigned workers : {1u, 4u}) {
    int exchanges = 0;
    try {
      run_lockstep_rounds(
          8, workers,
          [](std::size_t i) {
            if (i >= 3) throw std::runtime_error("job " + std::to_string(i));
          },
          [&] {
            ++exchanges;
            return false;
          });
      FAIL() << "expected an exception (workers=" << workers << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "job 3");
    }
    // A failed round must never run its exchange step.
    EXPECT_EQ(exchanges, 0);
  }
}

TEST(RunLockstepRounds, AdvanceErrorInALaterRoundSkipsThatExchange) {
  // Two jobs fail in round 3: the lowest index wins, round 3's exchange
  // never runs, and the pool joins cleanly (the call returns at all).
  for (const unsigned workers : {1u, 2u, 4u}) {
    int round = 1;
    int exchanges = 0;
    try {
      run_lockstep_rounds(
          6, workers,
          [&round](std::size_t i) {
            if (round == 3 && (i == 4 || i == 2)) {
              throw std::runtime_error("job " + std::to_string(i));
            }
          },
          [&] {
            ++exchanges;
            ++round;
            return true;
          });
      FAIL() << "expected an exception (workers=" << workers << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "job 2") << "workers=" << workers;
    }
    EXPECT_EQ(exchanges, 2) << "workers=" << workers;
  }
}

TEST(RunLockstepRounds, StressExchangeWritesReachTheNextAdvance) {
  // The barrier is the only synchronization between a round's exchange and
  // the next round's advance bodies (and back). Each job's value is a plain,
  // non-atomic integer that the exchange writes and the next advance reads
  // and increments — exactly the happens-before edges TSan must see. Any
  // lost or reordered hand-off shows up as a wrong total.
  constexpr int rounds = 20'000;
  for (const std::size_t jobs : {2u, 5u, 8u}) {
    for (const unsigned workers : {2u, 4u}) {
      std::vector<std::uint64_t> value(jobs, 0);
      int round = 0;
      bool in_step = true;
      run_lockstep_rounds(
          jobs, workers, [&value](std::size_t i) { value[i] += 1; },
          [&] {
            ++round;
            const auto advanced = 2 * static_cast<std::uint64_t>(round) - 1;
            for (auto& v : value) {
              in_step = in_step && v == advanced;
              v += 1;
            }
            return round < rounds;
          });
      EXPECT_TRUE(in_step) << "jobs=" << jobs << " workers=" << workers;
      EXPECT_EQ(round, rounds);
      for (const auto v : value) {
        EXPECT_EQ(v, 2u * rounds) << "jobs=" << jobs << " workers=" << workers;
      }
    }
  }
}

TEST(RunLockstepRounds, EachJobStaysOnOneThreadEveryRound) {
  // Fixed placement: job i runs on thread i % p in every round, and thread
  // 0 is the caller.
  constexpr std::size_t jobs = 7;
  for (const unsigned workers : {2u, 3u, 4u}) {
    const unsigned pool = resolve_threads(jobs, workers);
    std::vector<std::vector<std::thread::id>> seen(jobs);
    int round = 0;
    run_lockstep_rounds(
        jobs, workers,
        [&seen](std::size_t i) {
          seen[i].push_back(std::this_thread::get_id());
        },
        [&] { return ++round < 50; });
    for (std::size_t i = 0; i < jobs; ++i) {
      ASSERT_EQ(seen[i].size(), 50u);
      const std::thread::id home = seen[i % pool].front();
      for (const auto& id : seen[i]) {
        EXPECT_EQ(id, home) << "job " << i << " workers=" << workers;
      }
    }
    EXPECT_EQ(seen[0].front(), std::this_thread::get_id());
  }
}

TEST(RunLockstepRounds, PropagatesExchangeErrors) {
  EXPECT_THROW(run_lockstep_rounds(
                   4, 2, [](std::size_t) {},
                   []() -> bool { throw std::logic_error("exchange"); }),
               std::logic_error);
}

TEST(RunLockstepRounds, DrivesSimulationsToASharedHorizonDeterministically) {
  // Miniature conservative sync: three sims ping events forward in windows;
  // the merged executed-event counts must not depend on the worker count.
  const auto run = [](unsigned workers) {
    std::vector<std::unique_ptr<Simulation>> sims;
    for (int s = 0; s < 3; ++s) {
      sims.push_back(std::make_unique<Simulation>());
      auto* sim = sims.back().get();
      for (TimePs t = 10; t <= 1'000; t += 10 * (s + 1)) {
        sim->schedule_at(t, [] {});
      }
    }
    constexpr TimePs lookahead = 100;
    const auto horizon_of = [&]() {
      TimePs min_next = time_horizon;
      for (auto& sim : sims) {
        min_next = std::min(min_next, sim->next_event_time());
      }
      return min_next == time_horizon ? time_horizon
                                      : saturating_add(min_next, lookahead);
    };
    TimePs horizon = horizon_of();
    std::vector<std::uint64_t> executed;
    run_lockstep_rounds(
        sims.size(), workers,
        [&](std::size_t i) { (void)sims[i]->run_before(horizon); },
        [&] {
          horizon = horizon_of();
          return horizon != time_horizon;
        });
    for (auto& sim : sims) executed.push_back(sim->executed_events());
    return executed;
  };
  const auto sequential = run(1);
  EXPECT_EQ(run(2), sequential);
  EXPECT_EQ(run(4), sequential);
}

}  // namespace
}  // namespace flexsfp::sim
