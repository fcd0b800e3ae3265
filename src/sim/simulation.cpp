#include "sim/simulation.hpp"

namespace flexsfp::sim {

namespace {

void add_counter(obs::MetricSnapshot& snap, const char* name,
                 std::uint64_t value) {
  snap.add_sample({name, {}, obs::MetricKind::counter, value});
}

void add_gauge(obs::MetricSnapshot& snap, const char* name,
               std::uint64_t value) {
  snap.add_sample({name, {}, obs::MetricKind::gauge, value});
}

}  // namespace

Simulation::Simulation() {
  // Surface the hot-path tallies without touching the registry per event:
  // the queue and pool count in plain members, snapshots pull them here.
  metrics_.register_collector([this](obs::MetricSnapshot& snap) {
    const EventQueue::Stats& queue = queue_.stats();
    add_counter(snap, "sim.queue.pushed", queue.pushed);
    add_counter(snap, "sim.queue.inline_closures", queue.inline_closures);
    add_counter(snap, "sim.queue.boxed_closures", queue.boxed_closures);
    add_counter(snap, "sim.queue.slabs", queue.slabs_allocated);
    add_gauge(snap, "sim.queue.pending_high_watermark",
              queue.pending_high_watermark);

    const net::PacketPool::Stats pool = pool_.stats();
    add_counter(snap, "pool.made", pool.made);
    add_counter(snap, "pool.reused", pool.reused);
    add_counter(snap, "pool.fresh", pool.fresh);
    add_counter(snap, "pool.heap_fallbacks", pool.heap_fallbacks);
    add_gauge(snap, "pool.in_use", pool.in_use);
    add_gauge(snap, "pool.free", pool.free_count);
    add_gauge(snap, "pool.high_watermark", pool.high_watermark);
    add_gauge(snap, "pool.capacity", pool.capacity);
  });
}

void Simulation::execute_next() {
  EventQueue::Popped event = queue_.pop();
  now_ = event.at();
  ++executed_;
  event.invoke();
}

std::size_t Simulation::execute_through(TimePs last) {
  const std::uint64_t before = executed_;
  while (!queue_.empty() && queue_.min_time() <= last) execute_next();
  return static_cast<std::size_t>(executed_ - before);
}

std::size_t Simulation::run() { return execute_through(time_horizon); }

std::size_t Simulation::run_until(TimePs deadline) {
  const std::size_t executed = execute_through(deadline);
  if (now_ < deadline) now_ = deadline;
  return executed;
}

std::size_t Simulation::run_before(TimePs horizon) {
  // Events are never scheduled before time 0, so a horizon <= 0 runs none
  // (and horizon - 1 cannot underflow).
  const std::size_t executed = horizon > 0 ? execute_through(horizon - 1) : 0;
  if (now_ < horizon) now_ = horizon;
  return executed;
}

TimePs Simulation::next_event_time() const {
  return queue_.empty() ? time_horizon : queue_.min_time();
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  execute_next();
  return true;
}

}  // namespace flexsfp::sim
