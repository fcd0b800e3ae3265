// The unit of work that flows through the simulated datapath.
//
// Packets are intrusively refcounted and normally live in a PacketPool
// (net/packet_pool.hpp): PacketPtr is the pool-aware smart pointer behind
// which the whole datapath already programs, and releasing the last
// reference returns the buffer — payload capacity included — to its pool's
// free list instead of the heap. The refcount is deliberately non-atomic:
// a packet belongs to exactly one shard (one Simulation, one thread) at a
// time. The fabric engine never hands a packet between worlds: it copies the
// frame's bytes and PacketMeta into a mailbox, and the destination rebuilds
// it in its own pool. Packets that outlive a parallel run are touched only
// after its join, which synchronizes. See DESIGN.md §9 and §11.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>

#include "net/bytes.hpp"

namespace flexsfp::net {

class Packet;
class PacketPool;

namespace detail {
struct PacketPoolCore;
/// Out-of-line last-reference path: recycle into the owning pool, or plain
/// delete for heap-fallback and orphaned packets.
void release_packet(Packet* packet);
}  // namespace detail

/// Monotonic per-simulation packet identity, handy for tracing.
using PacketId = std::uint64_t;

/// The simulation metadata a packet carries beside its bytes, as one value:
/// copying a packet, scrubbing it for reuse and carrying it across fabric
/// worlds (fabric_testbed.cpp) all move this struct whole, so a field added
/// here cannot be dropped by one of them.
struct PacketMeta {
  PacketId id = 0;
  std::int64_t ingress_time_ps = 0;
  std::int64_t created_time_ps = 0;
  int ingress_port = 0;
  std::uint64_t user_metadata = 0;
};
static_assert(std::is_trivially_copyable_v<PacketMeta>,
              "PacketMeta crosses fabric worlds as raw bytes");

/// A packet: the on-wire bytes (Ethernet frame without preamble/FCS) plus
/// simulation metadata that a real datapath would carry as side-band signals.
class Packet {
 public:
  Packet() = default;
  explicit Packet(Bytes data) : data_(std::move(data)) {}
  /// Copying duplicates the wire bytes and metadata but never the intrusive
  /// bookkeeping — the copy starts unreferenced and pool-less.
  Packet(const Packet& other) : data_(other.data_), meta_(other.meta_) {}
  Packet& operator=(const Packet& other) {
    data_ = other.data_;
    meta_ = other.meta_;
    return *this;
  }
  Packet(Packet&& other) noexcept
      : data_(std::move(other.data_)), meta_(other.meta_) {}
  Packet& operator=(Packet&& other) noexcept {
    data_ = std::move(other.data_);
    meta_ = other.meta_;
    return *this;
  }

  [[nodiscard]] const Bytes& data() const { return data_; }
  [[nodiscard]] Bytes& data() { return data_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  /// Total bytes the frame occupies on a 10GBASE-R wire: payload plus
  /// preamble+SFD (8), FCS (4) and minimum inter-packet gap (12). Line-rate
  /// arithmetic must use this, not size().
  [[nodiscard]] std::size_t wire_size() const { return data_.size() + 24; }

  // --- simulation metadata -------------------------------------------------

  /// Every metadata field at once (the accessors below read and write one).
  [[nodiscard]] const PacketMeta& metadata() const { return meta_; }
  void set_metadata(const PacketMeta& meta) { meta_ = meta; }

  [[nodiscard]] PacketId id() const { return meta_.id; }
  void set_id(PacketId id) { meta_.id = id; }

  /// Picoseconds since simulation start when the first bit entered the
  /// module under test; used for latency accounting.
  [[nodiscard]] std::int64_t ingress_time_ps() const {
    return meta_.ingress_time_ps;
  }
  void set_ingress_time_ps(std::int64_t t) { meta_.ingress_time_ps = t; }

  /// When the traffic source emitted the packet (end-to-end latency base;
  /// unlike ingress_time_ps this is never overwritten downstream).
  [[nodiscard]] std::int64_t created_time_ps() const {
    return meta_.created_time_ps;
  }
  void set_created_time_ps(std::int64_t t) { meta_.created_time_ps = t; }

  /// Which module interface the packet arrived on (0 = edge/electrical,
  /// 1 = optical). Architecture shells use this for demux decisions.
  [[nodiscard]] int ingress_port() const { return meta_.ingress_port; }
  void set_ingress_port(int port) { meta_.ingress_port = port; }

  /// Scratch metadata word usable by pipeline stages (models per-packet
  /// metadata bus in an RMT-style design).
  [[nodiscard]] std::uint64_t user_metadata() const {
    return meta_.user_metadata;
  }
  void set_user_metadata(std::uint64_t v) { meta_.user_metadata = v; }

 private:
  friend class PacketPtr;
  friend class PacketPool;
  friend void detail::release_packet(Packet* packet);

  /// Scrub simulation state before the buffer re-enters the free list. The
  /// payload vector is cleared, not shrunk — capacity reuse is the point.
  void reset_for_reuse() {
    data_.clear();
    meta_ = {};
  }

  Bytes data_;
  PacketMeta meta_;
  // Intrusive bookkeeping (owned by PacketPtr / PacketPool, never copied).
  std::uint32_t refs_ = 0;
  detail::PacketPoolCore* pool_core_ = nullptr;
};

/// Intrusive, pool-aware shared handle with the std::shared_ptr surface the
/// call sites use (copy/move, ->, *, bool, get, reset). The count is not
/// atomic — see the Packet class comment for the ownership rule that makes
/// that safe.
class PacketPtr {
 public:
  PacketPtr() = default;
  PacketPtr(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  PacketPtr(const PacketPtr& other) : packet_(other.packet_) {
    if (packet_ != nullptr) ++packet_->refs_;
  }
  PacketPtr(PacketPtr&& other) noexcept : packet_(other.packet_) {
    other.packet_ = nullptr;
  }
  PacketPtr& operator=(const PacketPtr& other) {
    PacketPtr(other).swap(*this);
    return *this;
  }
  PacketPtr& operator=(PacketPtr&& other) noexcept {
    PacketPtr(std::move(other)).swap(*this);
    return *this;
  }
  ~PacketPtr() {
    if (packet_ != nullptr && --packet_->refs_ == 0) {
      detail::release_packet(packet_);
    }
  }

  /// Wrap a packet whose refcount is already 1 (pool allocation path).
  [[nodiscard]] static PacketPtr adopt(Packet* packet) {
    PacketPtr ptr;
    ptr.packet_ = packet;
    return ptr;
  }

  [[nodiscard]] Packet* get() const { return packet_; }
  [[nodiscard]] Packet& operator*() const { return *packet_; }
  [[nodiscard]] Packet* operator->() const { return packet_; }
  [[nodiscard]] explicit operator bool() const { return packet_ != nullptr; }
  void reset() { PacketPtr().swap(*this); }
  void swap(PacketPtr& other) noexcept { std::swap(packet_, other.packet_); }

  friend bool operator==(const PacketPtr& a, const PacketPtr& b) {
    return a.packet_ == b.packet_;
  }
  friend bool operator==(const PacketPtr& a, std::nullptr_t) {
    return a.packet_ == nullptr;
  }

 private:
  Packet* packet_ = nullptr;
};

/// Wrap `data` in a pooled packet from the calling thread's fallback pool.
/// Components that run inside a Simulation should prefer
/// sim.packet_pool().make() so the allocation is accounted per shard.
[[nodiscard]] PacketPtr make_packet(Bytes data = {});
[[nodiscard]] PacketPtr make_packet(Packet frame);

/// Detach a self-contained value copy of a pooled packet's frame (wire
/// bytes + simulation metadata, no intrusive bookkeeping) that may outlive
/// the packet's pool and thread. Its one remaining user is perfbench's frame
/// sampler, which keeps delivered frames past the run. Cross-world handoff
/// in the fabric engine does not detach: it copies the bytes and PacketMeta
/// into a mailbox, and the destination rebuilds the packet in its own pool.
[[nodiscard]] inline Packet detach_frame(const Packet& packet) {
  return packet;
}

}  // namespace flexsfp::net
