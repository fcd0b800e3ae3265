#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace flexsfp::sim {

EventQueue::EventQueue() : ring_(kBuckets) {}

EventQueue::~EventQueue() {
  // Destroy every pending closure; node memory is slab-owned.
  destroy_pending(current_);
  for (auto& slot : ring_) destroy_pending(slot);
  destroy_pending(overflow_);
}

void EventQueue::destroy_pending(std::vector<Ref>& refs) {
  for (const Ref& ref : refs) {
    if (ref.node->destroy != nullptr) ref.node->destroy(ref.node->storage);
  }
  refs.clear();
}

EventQueue::Node* EventQueue::acquire_node() {
  if (free_nodes_ == nullptr) {
    auto slab = std::make_unique<Node[]>(kSlabNodes);
    for (std::size_t i = 0; i < kSlabNodes; ++i) {
      slab[i].next_free = free_nodes_;
      free_nodes_ = &slab[i];
    }
    slabs_.push_back(std::move(slab));
    ++stats_.slabs_allocated;
  }
  Node* node = free_nodes_;
  free_nodes_ = node->next_free;
  return node;
}

void EventQueue::release_node(Node* node) {
  node->invoke = nullptr;
  node->destroy = nullptr;
  node->next_free = free_nodes_;
  free_nodes_ = node;
}

void EventQueue::insert(const Ref& ref) {
  const std::uint64_t bucket = bucket_of(ref.at);
  if (bucket <= cur_bucket_) {
    // At or before the bucket being drained (the window may have advanced
    // past a newly scheduled now-ish event while hunting for the minimum):
    // the drain heap orders it exactly.
    current_.push_back(ref);
    std::push_heap(current_.begin(), current_.end(), Later{});
  } else if (bucket - cur_bucket_ < kBuckets) {
    ring_[bucket % kBuckets].push_back(ref);
    ++ring_count_;
    mark_slot(bucket);
  } else {
    overflow_.push_back(ref);
    overflow_min_bucket_ = std::min(overflow_min_bucket_, bucket);
    ++stats_.overflow_spills;
  }
  ++size_;
  ++stats_.pushed;
  if (size_ > stats_.pending_high_watermark) {
    stats_.pending_high_watermark = size_;
  }
}

void EventQueue::ensure_current() {
  assert(size_ > 0);
  while (current_.empty()) {
    if (ring_count_ == 0) {
      redistribute_overflow();
      continue;
    }
    const std::size_t d = next_occupied_distance();
    // An overflow event becomes ring-eligible once the window has advanced
    // within kBuckets of it; it must join the ring before the scan passes
    // its slot, or it would execute after nearer-but-later events. The
    // one-slot-at-a-time scan migrated at the first window position with
    // overflow_min - cur < kBuckets; a jump over d slots must stop at that
    // same trigger position when it falls inside the jump.
    if (!overflow_.empty()) {
      const std::uint64_t trigger = overflow_min_bucket_ - kBuckets + 1;
      if (cur_bucket_ + d > trigger) {
        cur_bucket_ = std::max(cur_bucket_, trigger);
        migrate_overflow();
        continue;  // migrated events may occupy nearer slots: rescan
      }
    }
    cur_bucket_ += d;
    auto& slot = ring_[cur_bucket_ % kBuckets];
    ring_count_ -= slot.size();
    clear_slot(cur_bucket_);
    current_.swap(slot);  // slot inherits current_'s empty capacity
    std::make_heap(current_.begin(), current_.end(), Later{});
  }
}

std::size_t EventQueue::next_occupied_distance() const {
  constexpr std::size_t kWords = kBuckets / 64;
  const std::size_t pos = cur_bucket_ % kBuckets;
  const std::size_t start = (pos + 1) % kBuckets;
  // First word is masked to bits >= start; then whole words, wrapping once
  // past the first word so bits below start%64 are seen last. Every ring
  // event is within kBuckets-1 buckets of cur_bucket_ (insert spills the
  // rest to overflow_), so the first set bit in ring order is the target.
  std::size_t word = start / 64;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start % 64));
  for (std::size_t i = 0; i <= kWords; ++i) {
    if (bits != 0) {
      const std::size_t slot =
          word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      return (slot + kBuckets - pos - 1) % kBuckets + 1;
    }
    word = (word + 1) % kWords;
    bits = occupied_[word];
  }
  assert(false && "ring_count_ > 0 but occupancy bitmap is empty");
  return 1;
}

// Move every overflow event that now fits the ring window into its slot.
// Overflow buckets are strictly greater than cur_bucket_ (events spill only
// when beyond the window, and the window never moves past them unmigrated),
// so the unsigned distance test is exact.
void EventQueue::migrate_overflow() {
  std::vector<Ref> keep;
  std::uint64_t new_min = no_overflow_min;
  for (const Ref& ref : overflow_) {
    const std::uint64_t bucket = bucket_of(ref.at);
    if (bucket - cur_bucket_ < kBuckets) {
      ring_[bucket % kBuckets].push_back(ref);
      ++ring_count_;
      mark_slot(bucket);
    } else {
      new_min = std::min(new_min, bucket);
      keep.push_back(ref);
    }
  }
  overflow_.swap(keep);
  overflow_min_bucket_ = new_min;
}

void EventQueue::redistribute_overflow() {
  assert(!overflow_.empty());
  ++stats_.window_rebuilds;

  TimePs min_at = overflow_.front().at;
  TimePs max_at = min_at;
  for (const Ref& ref : overflow_) {
    min_at = std::min(min_at, ref.at);
    max_at = std::max(max_at, ref.at);
  }
  // Sparse horizon: when the remaining events span far more than one
  // window, widen the buckets (every live event is in overflow_ right now,
  // so remapping is safe). Each rebuild at most doubles the shift deficit
  // away, capped well below the point where `at >> shift` degenerates.
  while (width_shift_ < 48 &&
         (static_cast<std::uint64_t>(max_at - min_at) >> width_shift_) >=
             kBuckets * 4) {
    ++width_shift_;
  }

  cur_bucket_ = bucket_of(min_at);
  std::vector<Ref> keep;
  std::uint64_t new_min = no_overflow_min;
  for (const Ref& ref : overflow_) {
    const std::uint64_t bucket = bucket_of(ref.at);
    if (bucket == cur_bucket_) {
      current_.push_back(ref);
    } else if (bucket - cur_bucket_ < kBuckets) {
      ring_[bucket % kBuckets].push_back(ref);
      ++ring_count_;
      mark_slot(bucket);
    } else {
      new_min = std::min(new_min, bucket);
      keep.push_back(ref);
    }
  }
  overflow_.swap(keep);
  overflow_min_bucket_ = new_min;
  std::make_heap(current_.begin(), current_.end(), Later{});
}

TimePs EventQueue::min_time() {
  ensure_current();
  return current_.front().at;
}

EventQueue::Popped EventQueue::pop() {
  ensure_current();
  std::pop_heap(current_.begin(), current_.end(), Later{});
  const Ref ref = current_.back();
  current_.pop_back();
  --size_;
  return Popped{this, ref.node, ref.at};
}

void EventQueue::Popped::invoke() {
  node_->invoke(node_->storage);
  node_->destroy(node_->storage);
  node_->destroy = nullptr;
}

EventQueue::Popped::~Popped() {
  if (node_ == nullptr) return;
  if (node_->destroy != nullptr) node_->destroy(node_->storage);
  queue_->release_node(node_);
}

}  // namespace flexsfp::sim
