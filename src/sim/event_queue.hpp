// Allocation-free discrete-event queue: a bucketed calendar structure over
// slab-allocated event nodes with inline closure storage.
//
// The seed implementation was std::priority_queue<Entry> with a
// std::function per event — one malloc per scheduled event (closures with
// captured PacketPtrs never fit libstdc++'s 16-byte SSO) plus O(log n)
// moves of 48-byte entries on every sift. Here an event is a 64-byte node
// carved from a slab and recycled through a free list; callables up to
// kInlineClosure bytes (every closure in this codebase) are constructed
// directly into the node, larger ones fall back to one boxed allocation and
// are counted so the regression gate can see them. Ordering is a calendar:
// near-future events hash into time buckets by `at >> width_shift`, the
// bucket being drained is a small binary min-heap of 24-byte PODs, and
// far-future events wait in an overflow list that is redistributed when the
// window advances (doubling the bucket width when the horizon is sparse).
//
// The tie-break contract is exactly the seed's: events execute in strict
// (time, insertion-order) sequence. (at, seq) is a total order — seq is
// unique — so heap pops are deterministic regardless of heap layout, and
// sequential/sharded runs stay bit-identical.
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
    std::uint64_t overflow_spills = 0;   // events parked beyond the window
    std::uint64_t window_rebuilds = 0;   // overflow redistributions
    std::uint64_t slabs_allocated = 0;
    std::uint64_t pending_high_watermark = 0;
  };

  EventQueue();
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` at absolute time `at` (must be >= 0; the Simulation
  /// clamps to now() first). Insertion order is remembered for tie-breaks.
  template <class F>
  void push(TimePs at, F&& fn) {
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
    insert(Ref{at, next_seq_++, node});
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Earliest pending (time, seq) event's time. Precondition: !empty().
  /// Non-const: locating the minimum may advance the calendar window.
  [[nodiscard]] TimePs min_time();

  /// One popped event, holding its node until destruction. invoke() runs
  /// and destroys the callable; the destructor returns the node to the
  /// queue's free list either way (exception-safe).
  class Popped {
   public:
    Popped(Popped&& other) noexcept
        : queue_(other.queue_), node_(other.node_), at_(other.at_) {
      other.node_ = nullptr;
    }
    Popped(const Popped&) = delete;
    Popped& operator=(const Popped&) = delete;
    Popped& operator=(Popped&&) = delete;
    ~Popped();

    [[nodiscard]] TimePs at() const { return at_; }
    void invoke();

   private:
    friend class EventQueue;
    Popped(EventQueue* queue, Node* node, TimePs at)
        : queue_(queue), node_(node), at_(at) {}

    EventQueue* queue_;
    Node* node_;
    TimePs at_;
  };

  /// Remove and return the earliest event. Precondition: !empty().
  [[nodiscard]] Popped pop();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Current bucket width in picoseconds (2^width_shift); observable so
  /// tests can assert the sparse-horizon widening actually engages.
  [[nodiscard]] TimePs bucket_width() const { return TimePs{1} << width_shift_; }

 private:
  struct Node {
    void (*invoke)(void*) = nullptr;
    void (*destroy)(void*) = nullptr;
    Node* next_free = nullptr;
    alignas(std::max_align_t) unsigned char storage[kInlineClosure];
  };
  /// What the ordering structure moves around: 24 bytes, trivially copyable.
  struct Ref {
    TimePs at;
    std::uint64_t seq;
    Node* node;
  };
  struct Later {
    bool operator()(const Ref& a, const Ref& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  static constexpr std::size_t kBuckets = 256;       // ring size
  static constexpr unsigned kInitialWidthShift = 14;  // 16.4 ns buckets
  static constexpr std::size_t kSlabNodes = 512;

  [[nodiscard]] std::uint64_t bucket_of(TimePs at) const {
    return static_cast<std::uint64_t>(at) >> width_shift_;
  }

  Node* acquire_node();
  void release_node(Node* node);
  void insert(const Ref& ref);
  /// Make current_ hold the earliest pending bucket. Precondition: size_ > 0.
  void ensure_current();
  /// Mark/unmark ring slot `bucket % kBuckets` in the occupancy bitmap.
  void mark_slot(std::uint64_t bucket) {
    occupied_[(bucket % kBuckets) / 64] |=
        std::uint64_t{1} << ((bucket % kBuckets) % 64);
  }
  void clear_slot(std::uint64_t bucket) {
    occupied_[(bucket % kBuckets) / 64] &=
        ~(std::uint64_t{1} << ((bucket % kBuckets) % 64));
  }
  /// Distance (1..kBuckets-1) from cur_bucket_ to the next occupied ring
  /// slot. Precondition: ring_count_ > 0.
  [[nodiscard]] std::size_t next_occupied_distance() const;
  void redistribute_overflow();
  void migrate_overflow();
  void destroy_pending(std::vector<Ref>& refs);

  static constexpr std::uint64_t no_overflow_min = ~std::uint64_t{0};

  std::vector<Ref> current_;  // min-heap (Later) of the bucket being drained
  std::vector<std::vector<Ref>> ring_;  // future buckets, unsorted
  /// One bit per ring slot (set ⇔ slot non-empty), so advancing the window
  /// jumps straight to the next occupied slot instead of stepping through
  /// the empty ones — sparse schedules (events many buckets apart) would
  /// otherwise spend most of the drain loop scanning vacant slots.
  std::uint64_t occupied_[kBuckets / 64] = {};
  std::vector<Ref> overflow_;           // beyond the ring window, unsorted
  std::uint64_t overflow_min_bucket_ = no_overflow_min;
  std::uint64_t cur_bucket_ = 0;        // absolute index of current_'s bucket
  unsigned width_shift_ = kInitialWidthShift;
  std::size_t ring_count_ = 0;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  Node* free_nodes_ = nullptr;
  std::vector<std::unique_ptr<Node[]>> slabs_;
  Stats stats_;
};

}  // namespace flexsfp::sim
