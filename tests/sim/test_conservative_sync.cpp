// The conservative-sync primitives: bounded windows on one Simulation
// (run_before / next_event_time) and the lockstep round engine that drives
// many of them from a persistent worker pool, one window bound per round.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
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

// In these tests a round's horizon doubles as its number: the first horizon
// is 0 (or 1), the lookahead is 1, and a job that wants another round
// returns the horizon it was given.

TEST(RunLockstepRounds, RunsEveryJobOncePerRoundUntilNothingIsPending) {
  constexpr std::size_t jobs = 5;
  constexpr TimePs rounds = 7;
  std::vector<std::atomic<int>> hits(jobs);
  const std::uint64_t ran = run_lockstep_rounds(
      jobs, 4, /*lookahead=*/1, /*first_horizon=*/1,
      [&](std::size_t i, TimePs horizon) {
        hits[i].fetch_add(1);
        return horizon < rounds ? horizon : time_horizon;
      });
  EXPECT_EQ(ran, static_cast<std::uint64_t>(rounds));
  for (const auto& h : hits) EXPECT_EQ(h.load(), rounds);
}

TEST(RunLockstepRounds, HorizonSeesEveryAdvanceOfItsRound) {
  // Every thread computes the next horizon from every job's returned time:
  // each round a different job returns the minimum, so a thread that missed
  // any job's value would step the horizon by more than 10 + lookahead, and
  // threads that disagreed would desynchronize (or never finish).
  constexpr std::size_t jobs = 8;
  constexpr TimePs lookahead = 5;
  constexpr TimePs step = 10 + lookahead;
  constexpr int rounds = 40;
  for (const unsigned workers : {1u, 3u, 4u}) {
    std::vector<std::vector<TimePs>> seen(jobs);
    const std::uint64_t ran = run_lockstep_rounds(
        jobs, workers, lookahead, /*first_horizon=*/0,
        [&](std::size_t i, TimePs horizon) {
          seen[i].push_back(horizon);
          const auto round = static_cast<std::size_t>(horizon / step);
          if (round + 1 == rounds) return time_horizon;
          return horizon + 10 + TimePs(3 * ((i + round) % jobs));
        });
    EXPECT_EQ(ran, static_cast<std::uint64_t>(rounds)) << "workers=" << workers;
    for (std::size_t i = 0; i < jobs; ++i) {
      ASSERT_EQ(seen[i].size(), static_cast<std::size_t>(rounds));
      for (int r = 0; r < rounds; ++r) {
        EXPECT_EQ(seen[i][r], r * step) << "job " << i << " workers=" << workers;
      }
    }
  }
}

TEST(RunLockstepRounds, SequentialPathAdvancesInIndexOrder) {
  std::vector<std::size_t> order;
  const std::uint64_t ran = run_lockstep_rounds(
      4, 1, /*lookahead=*/1, /*first_horizon=*/0,
      [&](std::size_t i, TimePs horizon) {
        order.push_back(i);
        return horizon < 1 ? horizon : time_horizon;
      });
  EXPECT_EQ(ran, 2u);
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i % 4);
  }
}

TEST(RunLockstepRounds, PropagatesTheLowestIndexedAdvanceError) {
  for (const unsigned workers : {1u, 4u}) {
    std::vector<int> calls(8, 0);
    try {
      (void)run_lockstep_rounds(
          8, workers, /*lookahead=*/1, /*first_horizon=*/0,
          [&calls](std::size_t i, TimePs horizon) {
            ++calls[i];
            if (i >= 3) throw std::runtime_error("job " + std::to_string(i));
            return horizon;  // would run forever without the error
          });
      FAIL() << "expected an exception (workers=" << workers << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "job 3");
    }
    // A failed round must never start another.
    for (std::size_t i = 0; i < calls.size(); ++i) {
      EXPECT_LE(calls[i], 1) << "job " << i << " workers=" << workers;
    }
  }
}

TEST(RunLockstepRounds, AdvanceErrorInALaterRoundStartsNoFurtherRound) {
  // Two jobs fail in round 3: the lowest index wins, no job sees round 4,
  // and the pool joins cleanly (the call returns at all).
  for (const unsigned workers : {1u, 2u, 4u}) {
    std::vector<TimePs> last(6, 0);
    try {
      (void)run_lockstep_rounds(
          6, workers, /*lookahead=*/1, /*first_horizon=*/1,
          [&last](std::size_t i, TimePs round) {
            last[i] = round;
            if (round == 3 && (i == 4 || i == 2)) {
              throw std::runtime_error("job " + std::to_string(i));
            }
            return round;
          });
      FAIL() << "expected an exception (workers=" << workers << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "job 2") << "workers=" << workers;
    }
    for (std::size_t i = 0; i < last.size(); ++i) {
      // Sequentially, round 3 stops at job 2; every job still ran round 2.
      if (workers == 1 && i > 2) {
        EXPECT_EQ(last[i], 2) << "job " << i;
      } else {
        EXPECT_EQ(last[i], 3) << "job " << i << " workers=" << workers;
      }
    }
  }
}

/// Job i writes a plain value each round that job (i + 1) % jobs reads the
/// next round, double-buffered by round parity so that no round both reads
/// and writes one cell. The round edge is the only synchronization between
/// the write and the read (and between the read and the overwrite two rounds
/// later) — exactly the happens-before edges TSan must see. A lost or
/// reordered edge shows up as a wrong value. With `stall`, job
/// (round / 3) % jobs sleeps for 200 µs every third round, longer than the
/// 50 µs spin bound, so the other threads park and must be woken.
void expect_values_reach_the_next_job(std::size_t jobs, unsigned workers,
                                      TimePs rounds, bool stall) {
  std::array<std::vector<TimePs>, 2> value;
  value.fill(std::vector<TimePs>(jobs, 0));
  std::vector<std::uint64_t> wrong(jobs, 0);
  std::vector<TimePs> reads(jobs, 0);
  const std::uint64_t ran = run_lockstep_rounds(
      jobs, workers, /*lookahead=*/1, /*first_horizon=*/0,
      [&](std::size_t i, TimePs round) {
        if (stall && round % 3 == 0 &&
            static_cast<std::size_t>(round / 3) % jobs == i) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        if (round > 0) {
          const std::size_t from = (i + jobs - 1) % jobs;
          if (value[(round - 1) & 1][from] != round) ++wrong[i];
          ++reads[i];
        }
        value[round & 1][i] = round + 1;
        return round + 1 < rounds ? round : time_horizon;
      });
  const std::string where = "jobs=" + std::to_string(jobs) +
                            " workers=" + std::to_string(workers);
  EXPECT_EQ(ran, static_cast<std::uint64_t>(rounds)) << where;
  for (std::size_t i = 0; i < jobs; ++i) {
    EXPECT_EQ(wrong[i], 0u) << "job " << i << " " << where;
    EXPECT_EQ(reads[i], rounds - 1) << "job " << i << " " << where;
  }
}

TEST(RunLockstepRounds, StressExchangeWritesReachTheNextAdvance) {
  for (const std::size_t jobs : {2u, 5u, 8u}) {
    for (const unsigned workers : {2u, 3u, 4u}) {
      expect_values_reach_the_next_job(jobs, workers, 20'000, false);
    }
  }
}

TEST(RunLockstepRounds, NoWakeUpIsLostWhenAJobOutlastsTheSpin) {
  for (const unsigned workers : {2u, 4u}) {
    expect_values_reach_the_next_job(5, workers, 150, true);
  }
}

TEST(RunLockstepRounds, EachJobStaysOnOneThreadEveryRound) {
  // Fixed placement: job i runs on thread i % p in every round, and thread
  // 0 is the caller.
  constexpr std::size_t jobs = 7;
  for (const unsigned workers : {2u, 3u, 4u}) {
    const unsigned pool = resolve_threads(jobs, workers);
    std::vector<std::vector<std::thread::id>> seen(jobs);
    (void)run_lockstep_rounds(
        jobs, workers, /*lookahead=*/1, /*first_horizon=*/1,
        [&seen](std::size_t i, TimePs round) {
          seen[i].push_back(std::this_thread::get_id());
          return round < 50 ? round : time_horizon;
        });
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

TEST(RunLockstepRounds, DrivesSimulationsToASharedHorizonDeterministically) {
  // Miniature conservative sync: three sims run events forward in windows;
  // the executed-event counts and the round count must not depend on the
  // worker count, and the rounds must be the ones a serial loop computes.
  struct Outcome {
    std::vector<std::uint64_t> executed;
    std::uint64_t rounds = 0;
    bool operator==(const Outcome&) const = default;
  };
  constexpr TimePs lookahead = 100;
  const auto build = [] {
    std::vector<std::unique_ptr<Simulation>> sims;
    for (int s = 0; s < 3; ++s) {
      sims.push_back(std::make_unique<Simulation>());
      auto* sim = sims.back().get();
      for (TimePs t = 10; t <= 1'000; t += 10 * (s + 1)) {
        sim->schedule_at(t, [] {});
      }
    }
    return sims;
  };
  const auto earliest = [](const auto& sims) {
    TimePs min_next = time_horizon;
    for (auto& sim : sims) {
      min_next = std::min(min_next, sim->next_event_time());
    }
    return min_next;
  };
  const auto run = [&](unsigned workers) {
    auto sims = build();
    Outcome out;
    out.rounds = run_lockstep_rounds(
        sims.size(), workers, lookahead, earliest(sims) + lookahead,
        [&sims](std::size_t i, TimePs horizon) {
          (void)sims[i]->run_before(horizon);
          return sims[i]->next_event_time();
        });
    for (auto& sim : sims) out.executed.push_back(sim->executed_events());
    return out;
  };
  Outcome serial;
  {
    auto sims = build();
    for (TimePs next = earliest(sims); next != time_horizon;
         next = earliest(sims)) {
      for (auto& sim : sims) (void)sim->run_before(next + lookahead);
      ++serial.rounds;
    }
    for (auto& sim : sims) serial.executed.push_back(sim->executed_events());
  }
  EXPECT_GT(serial.rounds, 1u);
  EXPECT_EQ(run(1), serial);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(4), serial);
}

}  // namespace
}  // namespace flexsfp::sim
