// Allocation-free discrete-event queue: a binary min-heap over
// slab-allocated event nodes with inline closure storage.
//
// The seed implementation was std::priority_queue<Entry> with a
// std::function per event — one malloc per scheduled event (closures with
// captured PacketPtrs never fit libstdc++'s 16-byte SSO) plus O(log n)
// moves of 48-byte entries on every sift. Here an event is a 64-byte node
// carved from a slab and recycled through a free list; callables up to
// kInlineClosure bytes (every closure in this codebase) are constructed
// directly into the node, larger ones fall back to one boxed allocation and
// are counted so the regression gate can see them. The heap itself moves
// only 24-byte {at, seq, node*} refs.
//
// Why a heap and not a calendar (DESIGN.md §9): it is faster end to end on
// the simulator's workloads, allocates nothing once warm, and its cost
// stays O(log n) however far apart pending events are.
//
// The tie-break contract is exactly the seed's: events execute in strict
// (time, insertion-order) sequence. (at, seq) is a total order — seq is
// unique — so heap pops are deterministic regardless of heap layout, and
// sequential/sharded runs stay bit-identical.
//
// That (at, seq) pair is a Slot. A component may reserve a seq without
// pushing an event (reserve_seq) and act on the slot it names right away,
// instead of scheduling an event there: the egress arbiter admits a
// drained frame this way (DESIGN.md §9, "One event per hop"). Should it
// have to fall back, push_at schedules an ordinary event at the reserved
// slot, which then runs exactly where the skipped event would have.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace flexsfp::sim {

/// An event's place in the execution order: its time, then its insertion
/// sequence number.
struct Slot {
  TimePs at = 0;
  std::uint64_t seq = 0;
  friend auto operator<=>(const Slot&, const Slot&) = default;
};

class EventQueue {
  struct Node;  // slab-allocated event node, defined below

 public:
  /// Closures at most this large (and max_align-compatible) live inside the
  /// event node; anything bigger costs one heap allocation, visible in
  /// stats().boxed_closures.
  static constexpr std::size_t kInlineClosure = 40;

  /// Hot-path tallies, surfaced as sim.queue.* through the registry.
  struct Stats {
    std::uint64_t pushed = 0;
    std::uint64_t inline_closures = 0;
    std::uint64_t boxed_closures = 0;
    std::uint64_t slabs_allocated = 0;
    std::uint64_t pending_high_watermark = 0;
  };

  EventQueue() = default;
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` at absolute time `at` (must be >= 0; the Simulation
  /// clamps to now() first). Insertion order is remembered for tie-breaks.
  template <class F>
  void push(TimePs at, F&& fn) {
    push_at(Slot{at, next_seq_++}, std::forward<F>(fn));
  }

  /// Take the next insertion sequence number without pushing an event: the
  /// slot (at, seq) then sorts exactly where push(at, ...) would have put
  /// an event now.
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedule `fn` at a slot whose seq came from reserve_seq().
  template <class F>
  void push_at(Slot slot, F&& fn) {
    Node* node = acquire_node();
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineClosure &&
                  alignof(D) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(node->storage)) D(std::forward<F>(fn));
      node->invoke = [](void* s) { (*std::launder(reinterpret_cast<D*>(s)))(); };
      node->destroy = [](void* s) {
        std::launder(reinterpret_cast<D*>(s))->~D();
      };
      ++stats_.inline_closures;
    } else {
      auto boxed = std::make_unique<D>(std::forward<F>(fn));
      ::new (static_cast<void*>(node->storage)) D*(boxed.release());
      node->invoke = [](void* s) { (**std::launder(reinterpret_cast<D**>(s)))(); };
      node->destroy = [](void* s) {
        delete *std::launder(reinterpret_cast<D**>(s));
      };
      ++stats_.boxed_closures;
    }
    insert(Ref{slot.at, slot.seq, node});
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Earliest pending (time, seq) event's time. Precondition: !empty().
  [[nodiscard]] TimePs min_time() const { return heap_.front().at; }

  /// One popped event, holding its node until destruction. invoke() runs
  /// and destroys the callable; the destructor returns the node to the
  /// queue's free list either way (exception-safe).
  class Popped {
   public:
    Popped(Popped&& other) noexcept
        : queue_(other.queue_), node_(other.node_), slot_(other.slot_) {
      other.node_ = nullptr;
    }
    Popped(const Popped&) = delete;
    Popped& operator=(const Popped&) = delete;
    Popped& operator=(Popped&&) = delete;
    ~Popped();

    [[nodiscard]] TimePs at() const { return slot_.at; }
    [[nodiscard]] Slot slot() const { return slot_; }
    void invoke();

   private:
    friend class EventQueue;
    Popped(EventQueue* queue, Node* node, Slot slot)
        : queue_(queue), node_(node), slot_(slot) {}

    EventQueue* queue_;
    Node* node_;
    Slot slot_;
  };

  /// Remove and return the earliest event. Precondition: !empty().
  [[nodiscard]] Popped pop();

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Node {
    void (*invoke)(void*) = nullptr;
    void (*destroy)(void*) = nullptr;
    Node* next_free = nullptr;
    alignas(std::max_align_t) unsigned char storage[kInlineClosure];
  };
  __extension__ using Key = unsigned __int128;
  /// What the heap moves around: 24 bytes, trivially copyable.
  struct Ref {
    TimePs at;
    std::uint64_t seq;
    Node* node;
    /// (at, seq) as one number (times are never negative): a single
    /// compare the sifts turn into flag arithmetic instead of a branch.
    [[nodiscard]] Key key() const {
      return (Key{static_cast<std::uint64_t>(at)} << 64) | seq;
    }
  };

  static constexpr std::size_t kSlabNodes = 512;

  Node* acquire_node();
  void release_node(Node* node);
  void insert(const Ref& ref);
  void sift_up(std::size_t hole, const Ref& ref);

  std::vector<Ref> heap_;  // binary min-heap on Ref::key()
  std::uint64_t next_seq_ = 0;
  Node* free_nodes_ = nullptr;
  std::vector<std::unique_ptr<Node[]>> slabs_;
  Stats stats_;
};

}  // namespace flexsfp::sim
