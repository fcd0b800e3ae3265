// Point-to-point link and queued-server building blocks.
#pragma once

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "sim/lifetime.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace flexsfp::sim {

/// A unidirectional serial link: packets occupy the wire for
/// wire_size() / rate, then arrive after the propagation delay. Back-to-back
/// sends queue behind the transmitter (infinite TX buffer: sources that need
/// loss behaviour put a BoundedQueue in front).
class Link final : public PacketHandler {
 public:
  Link(Simulation& sim, DataRate rate, TimePs propagation_delay,
       PacketHandler& destination, std::string name = "link");

  void handle_packet(net::PacketPtr packet) override;

  [[nodiscard]] DataRate rate() const { return rate_; }
  /// Goodput (payload frame bytes), series `link.traffic{link=<name>}`.
  [[nodiscard]] const TrafficMeter& meter() const { return meter_; }
  /// Wire bytes (frame + preamble/IFG overhead) — the unit busy_ps and
  /// utilization() are computed in, series `link.wire{link=<name>}`. Kept as
  /// a separate series so goodput and occupancy never mix units.
  [[nodiscard]] const TrafficMeter& wire_meter() const { return wire_meter_; }
  /// Total time the transmitter was busy — utilization = busy / elapsed.
  /// Reads the registry series `link.busy_ps{link=<name>}`.
  [[nodiscard]] TimePs busy_time() const {
    return TimePs(sim_.metrics().value(busy_id_));
  }
  [[nodiscard]] double utilization(TimePs elapsed) const {
    return elapsed > 0 ? double(busy_time()) / double(elapsed) : 0.0;
  }
  /// Registry-unique instance name ("link", "link1", ... for defaults).
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  Simulation& sim_;
  DataRate rate_;
  SerializationTimer ser_{rate_};
  TimePs propagation_delay_;
  PacketHandler& destination_;
  std::string name_;
  TimePs next_free_ = 0;
  TrafficMeter meter_;
  TrafficMeter wire_meter_;
  obs::MetricId busy_id_;
  std::uint16_t flight_stage_ = 0;
  Lifetime lifetime_;
};

/// FIFO over a power-of-two ring that doubles on demand and never shrinks:
/// once the ring reaches the queue's working depth, push/pop cycle through
/// preallocated slots with no allocator traffic (std::deque re-allocates a
/// chunk every time the queue drains across a chunk boundary, which showed
/// up as steady-state churn in the hot-path allocation audit).
template <class T>
class Ring {
 public:
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }
  /// The i-th oldest element. Precondition: i < size().
  [[nodiscard]] T& operator[](std::size_t i) {
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }
  void push_back(T value) {
    if (count_ == slots_.size()) grow();
    (*this)[count_] = std::move(value);
    ++count_;
  }
  /// Remove and return the oldest element. Precondition: !empty().
  T pop_front() {
    T value = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --count_;
    return value;
  }

 private:
  void grow() {
    std::vector<T> bigger(std::max<std::size_t>(slots_.size() * 2, 16));
    for (std::size_t i = 0; i < count_; ++i) bigger[i] = std::move((*this)[i]);
    slots_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// Drop-tail FIFO with a packet-count bound, as found in front of every
/// store-and-forward element. Pure container: the owner drives dequeue.
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  /// False when full; the owner counts the drop in its registry series.
  bool push(net::PacketPtr packet);
  [[nodiscard]] net::PacketPtr pop();
  [[nodiscard]] bool empty() const { return ring_.empty(); }
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  // Depth high-watermark bookkeeping lives with the owner's registry gauge
  // (`server.queue_high_watermark`), the single source of truth — a shadow
  // counter here could silently disagree with it.

 private:
  std::size_t capacity_;
  Ring<net::PacketPtr> ring_;
};

/// An M/G/1-style service element: arriving packets wait in a bounded FIFO,
/// are served one at a time for `service_time(packet)`, then handed to
/// `finish`. This is the execution model of the Packet Processing Engine:
/// the service time is the packet's cycle budget on the PPE clock.
class QueuedServer : public PacketHandler {
 public:
  /// `stage` names this service element in the registry (uniquified per
  /// simulation: "ppe", "ppe1", ...) and in the flight recorder. Its series:
  /// server.queue_drops / server.busy_ps / server.queue_high_watermark /
  /// server.served.{packets,bytes}, all labeled {stage=<name>}.
  QueuedServer(Simulation& sim, std::size_t queue_capacity,
               std::string stage = "server");

  void handle_packet(net::PacketPtr packet) final;

  [[nodiscard]] std::uint64_t drops() const {
    return sim_.metrics().value(drops_id_);
  }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] std::size_t queue_high_watermark() const {
    return static_cast<std::size_t>(sim_.metrics().value(watermark_id_));
  }
  [[nodiscard]] TimePs busy_time() const {
    return TimePs(sim_.metrics().value(busy_id_));
  }
  [[nodiscard]] double utilization(TimePs elapsed) const {
    return elapsed > 0 ? double(busy_time()) / double(elapsed) : 0.0;
  }
  [[nodiscard]] const TrafficMeter& served() const { return served_; }
  /// Registry-unique stage name this server reports under.
  [[nodiscard]] const std::string& stage_name() const { return stage_; }

 protected:
  [[nodiscard]] Simulation& sim() { return sim_; }
  [[nodiscard]] const Simulation& sim() const { return sim_; }
  /// Flight-recorder stage id, for subclasses recording their own hops
  /// (the Engine's verdicts) under the same stage name.
  [[nodiscard]] std::uint16_t flight_stage() const { return flight_stage_; }
  /// Liveness witness for subclasses scheduling their own `this`-capturing
  /// closures (Engine verdict drains) — same guard as the
  /// service-completion event.
  [[nodiscard]] LifetimeToken lifetime_token() const {
    return lifetime_.token();
  }
  /// How long this packet occupies the server.
  [[nodiscard]] virtual TimePs service_time(const net::Packet& packet) = 0;
  /// Invoked at service completion; implementations forward, drop, etc.
  virtual void finish(net::PacketPtr packet) = 0;

 private:
  void start_service();

  Simulation& sim_;
  BoundedQueue queue_;
  bool busy_ = false;
  std::string stage_;
  TrafficMeter served_;
  obs::MetricId drops_id_;
  obs::MetricId busy_id_;
  obs::MetricId watermark_id_;
  std::uint16_t flight_stage_ = 0;
  Lifetime lifetime_;
};

}  // namespace flexsfp::sim
