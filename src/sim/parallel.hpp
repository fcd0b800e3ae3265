// Deterministic fan-out for shard-parallel experiments.
//
// run_lockstep_rounds is the one worker-pool engine. Shards that exchange
// timestamped packets through a fabric advance in bounded time windows
// (conservative synchronization, the link propagation delay is the
// lookahead) and meet at a barrier after every window, where the caller's
// exchange step moves the boundary batches. Shards that share no state at
// all (one FlexSFP module per shard, one Simulation each) are the
// degenerate case: one round whose exchange returns false. Worker count
// never affects results: all cross-shard mutation happens in the
// single-threaded exchange step, and callers merge by shard index.
#pragma once

#include <cstddef>
#include <functional>

namespace flexsfp::sim {

/// Lockstep round engine for conservatively synchronized shards. Rounds
/// alternate two phases until `exchange` says stop:
///
///   1. advance — `advance(0) .. advance(jobs-1)`, each exactly once,
///      spread over `p = resolve_threads(jobs, workers)` threads; advance
///      bodies share no mutable state. `p <= 1` runs them on the caller
///      thread in index order — the sequential oracle.
///   2. exchange — `exchange()` runs on the caller thread while every
///      worker waits at the barrier; this is the only place cross-shard
///      state may be touched. Return true to run another round.
///
/// Placement is fixed: job `i` runs on thread `i % p` in every round (thread
/// 0 is the caller), so a shard's event queue, packet pool and registry stay
/// in one core's cache for the whole run. Worker threads persist across
/// rounds behind a generation barrier that polls for up to 50 µs (with the
/// CPU's spin-wait hint — x86 `pause`, aarch64 `yield` — for the first 2 µs,
/// then yielding the thread) before parking on a condition variable, so a run
/// of many small windows pays neither thread start-up nor a futex wake-up
/// per round. Exceptions
/// from advance bodies skip the round's exchange and are rethrown on the
/// caller thread (lowest shard index first).
void run_lockstep_rounds(std::size_t jobs, unsigned workers,
                         const std::function<void(std::size_t)>& advance,
                         const std::function<bool()>& exchange);

/// Worker threads actually spawned for a request: 0 means "one per job";
/// the result is capped by the job count and by the hardware thread count.
/// Explicitly requesting more workers than the machine has used to
/// oversubscribe — on a small host the context-switch thrash made workers=4
/// *slower* than sequential — and since shard results never depend on the
/// thread count, capping is pure win. Testbeds report this as workers_used.
[[nodiscard]] unsigned resolve_threads(std::size_t jobs, unsigned requested);

}  // namespace flexsfp::sim
