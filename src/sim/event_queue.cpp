#include "sim/event_queue.hpp"

namespace flexsfp::sim {

EventQueue::~EventQueue() {
  // Destroy every pending closure; node memory is slab-owned.
  for (const Ref& ref : heap_) {
    if (ref.node->destroy != nullptr) ref.node->destroy(ref.node->storage);
  }
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

// Move parents down into `hole` until `ref` fits there, then place it.
void EventQueue::sift_up(std::size_t hole, const Ref& ref) {
  const Key k = ref.key();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (heap_[parent].key() <= k) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = ref;
}

void EventQueue::insert(const Ref& ref) {
  // A new event is usually later than most pending ones, so it stops
  // within a level or two of the leaf.
  heap_.push_back(ref);
  sift_up(heap_.size() - 1, ref);
  ++stats_.pushed;
  if (heap_.size() > stats_.pending_high_watermark) {
    stats_.pending_high_watermark = heap_.size();
  }
}

EventQueue::Popped EventQueue::pop() {
  const Ref top = heap_.front();
  const Ref last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    // Walk the root's hole down to a leaf, promoting the earlier child each
    // level, then sift `last` up from there. `last` came from the bottom
    // row, so it rarely climbs, and the walk down needs no compare against
    // it: one branch-free child pick per level.
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
      if (child + 1 < n) child += heap_[child + 1].key() < heap_[child].key();
      heap_[hole] = heap_[child];
      hole = child;
    }
    sift_up(hole, last);
  }
  return Popped{this, top.node, Slot{top.at, top.seq}};
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
