// Discrete-event simulation core: a time-ordered event queue plus the
// per-run services every component needs (packet ids, packet buffers,
// tracing).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace flexsfp::sim {

/// The simulation owns time. Components schedule closures; run() executes
/// them in (time, insertion-order) sequence. Deterministic by construction:
/// ties are broken by a monotone sequence number, never by pointer order.
///
/// The hot path is allocation-free: closures are stored inline in slab
/// nodes (sim::EventQueue) and packets come from the per-simulation
/// PacketPool, so a sharded run does bounded work per packet with one pool
/// and one queue per shard. Every queue/pool tally is surfaced as
/// sim.queue.* / pool.* series through a registry collector.
class Simulation {
 public:
  using EventFn = std::function<void()>;

  Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] TimePs now() const { return now_; }

  /// Schedule `fn` at absolute time `at` (events in the past are clamped to
  /// now — hardware can't act retroactively). Callables up to
  /// EventQueue::kInlineClosure bytes are stored without allocating.
  template <class F>
  void schedule_at(TimePs at, F&& fn) {
    if (at < now_) at = now_;
    queue_.push(at, std::forward<F>(fn));
  }
  /// schedule_at(now + delay), saturating at the time horizon instead of
  /// wrapping — a "practically forever" timer stays in the future.
  template <class F>
  void schedule_in(TimePs delay, F&& fn) {
    schedule_at(saturating_add(now_, delay), std::forward<F>(fn));
  }

  /// Run everything; returns the number of events executed.
  std::size_t run();
  /// Run until simulated time exceeds `deadline` (events at exactly
  /// `deadline` still execute).
  std::size_t run_until(TimePs deadline);
  /// Conservative-sync primitive: execute every event strictly *before*
  /// `horizon`, then advance now() to `horizon` (even if the queue emptied
  /// first). A shard that has run_before(T) can never again produce a
  /// timestamp < T, which is what makes it safe to hand its outbound
  /// packets to other shards at the window boundary.
  std::size_t run_before(TimePs horizon);
  /// Execute a single event; false when the queue is empty.
  bool step();

  /// Earliest pending event's time, or time_horizon when the queue is
  /// empty (the event heap's root). The lockstep window scheduler sizes the
  /// next safe window off the minimum of this across shards, plus the
  /// link-delay lookahead.
  [[nodiscard]] TimePs next_event_time() const;

  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  /// Events executed since construction (across run/run_until/step) — the
  /// work metric shard-parallel runs merge and report.
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Fresh packet identity for tracing.
  [[nodiscard]] net::PacketId next_packet_id() { return ++last_packet_id_; }

  /// The run's packet buffers: one pool per simulation = one per shard, so
  /// sharded runs never free across shards and pool.* series merge
  /// deterministically. Components allocate and clone through this.
  [[nodiscard]] net::PacketPool& packet_pool() { return pool_; }
  [[nodiscard]] const net::PacketPool& packet_pool() const { return pool_; }

  /// The run's telemetry spine: every component registers its counters here
  /// (one registry per simulation = one per shard, merged at the barrier).
  [[nodiscard]] obs::MetricRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricRegistry& metrics() const { return metrics_; }

  /// Per-packet stage-hop ring. Sampling is keyed off packet ids, so which
  /// packets fly is identical across sequential and sharded runs.
  [[nodiscard]] obs::FlightRecorder& flight() { return flight_; }
  [[nodiscard]] const obs::FlightRecorder& flight() const { return flight_; }

 private:
  /// Pop and invoke the earliest event. Precondition: !empty().
  void execute_next();
  /// Execute events one at a time while the earliest is at or before
  /// `last`; returns how many ran. The loop behind run/run_until/run_before.
  std::size_t execute_through(TimePs last);

  EventQueue queue_;
  TimePs now_ = 0;
  std::uint64_t executed_ = 0;
  net::PacketId last_packet_id_ = 0;
  net::PacketPool pool_;
  obs::MetricRegistry metrics_;
  obs::FlightRecorder flight_;
};

/// Anything that can receive a packet (a port, a queue, a sink...).
class PacketHandler {
 public:
  virtual ~PacketHandler() = default;
  virtual void handle_packet(net::PacketPtr packet) = 0;
};

/// Adapts a lambda into a PacketHandler — convenient for tests and for
/// wiring topology glue.
class LambdaHandler final : public PacketHandler {
 public:
  explicit LambdaHandler(std::function<void(net::PacketPtr)> fn)
      : fn_(std::move(fn)) {}
  void handle_packet(net::PacketPtr packet) override { fn_(std::move(packet)); }

 private:
  std::function<void(net::PacketPtr)> fn_;
};

}  // namespace flexsfp::sim
