// Deterministic fan-out for shard-parallel experiments.
//
// run_lockstep_rounds is the one worker-pool engine. Shards that exchange
// timestamped packets through a fabric advance in bounded time windows
// (conservative synchronization, the link propagation delay is the
// lookahead). A round has no serial step: every thread advances its own
// shards, publishes the earliest pending time among them in one cache line,
// waits until every other thread has published the same round, and then
// computes the next window bound itself — the same bound every other thread
// computes from the same published values. Cross-shard data moves inside
// the advance bodies, which read what other shards wrote in earlier rounds
// (the round edge orders those reads after the writes). Shards that share
// no state at all (one FlexSFP module per shard, one Simulation each) are
// the degenerate case: one round whose bodies report nothing pending.
// Worker count never affects results: the window bounds depend only on
// what the shards report, and callers merge by shard index.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "sim/time.hpp"

namespace flexsfp::sim {

/// Runs job `i`'s window strictly before `horizon` and returns the earliest
/// time at which job `i` still has work (time_horizon for none).
using LockstepAdvance = std::function<TimePs(std::size_t i, TimePs horizon)>;

/// Lockstep round engine for conservatively synchronized shards. Round 1
/// calls `advance(i, first_horizon)` for every job `i`; each later round
/// calls `advance(i, H)` with `H = min over jobs of the last round's
/// returned times + lookahead`. The run ends after the round in which every
/// job returned time_horizon. Returns the number of rounds run (at least 1
/// when `jobs > 0`).
///
/// A round's advance bodies are spread over `p = resolve_threads(jobs,
/// workers)` threads and share no mutable state within the round; a body
/// may read what any job wrote in an earlier round. `p <= 1` runs them on
/// the caller thread in index order — the sequential oracle. Placement is
/// fixed: job `i` runs on thread `i % p` in every round (thread 0 is the
/// caller), so a shard's event queue, packet pool and registry stay in one
/// core's cache, and a caller may key per-thread data on `i % p`.
///
/// Each thread publishes one cache-line slot per round (round number,
/// earliest pending time, error flag) and waits for the others' slots. A
/// waiter polls for up to 50 µs (with the CPU's spin-wait hint — x86
/// `pause`, aarch64 `yield` — for the first 2 µs, then yielding the thread)
/// before parking on a condition variable; a publisher notifies only when a
/// count of parked waiters says someone sleeps. A run of many small windows
/// therefore pays neither thread start-up nor a futex wake-up nor a mutex
/// per round. An exception from an advance body ends the run after the
/// round it failed in, and is rethrown on the caller thread (lowest job
/// index first).
std::uint64_t run_lockstep_rounds(std::size_t jobs, unsigned workers,
                                  TimePs lookahead, TimePs first_horizon,
                                  const LockstepAdvance& advance);

/// Worker threads actually spawned for a request: 0 means "one per job";
/// the result is capped by the job count and by the hardware thread count.
/// Explicitly requesting more workers than the machine has used to
/// oversubscribe — on a small host the context-switch thrash made workers=4
/// *slower* than sequential — and since shard results never depend on the
/// thread count, capping is pure win. Testbeds report this as workers_used.
[[nodiscard]] unsigned resolve_threads(std::size_t jobs, unsigned requested);

}  // namespace flexsfp::sim
