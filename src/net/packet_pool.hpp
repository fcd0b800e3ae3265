// Fixed-capacity packet buffer pool: the allocation-free half of the hot
// path (the other half is sim::EventQueue).
//
// The paper's cheap-path argument is that per-packet work is bounded and
// allocation-free; the simulator has to match or its throughput is bounded
// by malloc instead of the modeled 156.25 MHz × 64-bit budget. A PacketPool
// keeps released Packet objects — payload capacity included — on a
// free list, so steady-state traffic generation, cloning and delivery touch
// the allocator zero times per packet. Each Simulation owns one pool (so a
// sharded run has exactly one pool per shard and never frees across
// shards); bare make_packet() calls fall back to a thread-local pool.
//
// Lifetime rule: packets may outlive their pool (results hold delivered
// frames after the shard's Simulation is gone). The pool therefore keeps
// its state in a heap-allocated core; destroying the pool drains the free
// list and orphans the core, and the last outstanding packet release frees
// it. Everything is single-threaded by the shard ownership contract: a
// packet is made and released on its pool's thread, and what crosses
// threads in the fabric engine is a by-value copy of its bytes and metadata.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/packet.hpp"

namespace flexsfp::net {

namespace detail {
struct PacketPoolCore {
  /// Recycled packets ready to serve. reserve(limit)'d at construction, and
  /// only pooled packets (at most `limit`) ever enter, so pushes here never
  /// reallocate — releasing a packet is allocation-free too.
  std::vector<Packet*> free_list;
  std::size_t outstanding = 0;   // pooled packets currently referenced
  std::size_t pooled_total = 0;  // pooled packets in existence
  std::size_t limit = 0;         // max pooled packets; beyond = heap
  bool orphaned = false;         // pool destroyed, core self-frees
  // Tallies surfaced as pool.* registry series.
  std::uint64_t made = 0;
  std::uint64_t reused = 0;
  std::uint64_t fresh = 0;
  std::uint64_t heap_fallbacks = 0;
  std::size_t high_watermark = 0;
};
}  // namespace detail

class PacketPool {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// Point-in-time view of the pool's accounting.
  struct Stats {
    std::uint64_t made = 0;            // every allocation served
    std::uint64_t reused = 0;          // served from the free list
    std::uint64_t fresh = 0;           // first-time pooled constructions
    std::uint64_t heap_fallbacks = 0;  // pool exhausted, plain heap packet
    std::size_t in_use = 0;            // pooled packets currently referenced
    std::size_t free_count = 0;        // recycled packets ready to serve
    std::size_t high_watermark = 0;    // max in_use ever
    std::size_t capacity = 0;
  };

  explicit PacketPool(std::size_t capacity = kDefaultCapacity);
  ~PacketPool();
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// A recycled (or fresh) packet with empty payload and zeroed metadata.
  /// Never fails: past `capacity` pooled packets it serves plain heap
  /// packets and counts the fallback.
  [[nodiscard]] PacketPtr make();
  /// make() with the payload moved in.
  [[nodiscard]] PacketPtr make(Bytes data);
  /// make() carrying a copy of `src`'s bytes and metadata (duplication,
  /// mirror-to-control, broadcast). Reuses the recycled payload capacity.
  [[nodiscard]] PacketPtr clone(const Packet& src);
  /// Move a value-built frame (e.g. make_mgmt_frame's result) into a pooled
  /// packet.
  [[nodiscard]] PacketPtr make_from(Packet frame);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t capacity() const { return core_->limit; }

  /// The calling thread's fallback pool, used by bare make_packet().
  [[nodiscard]] static PacketPool& local();

 private:
  detail::PacketPoolCore* core_;
};

}  // namespace flexsfp::net
