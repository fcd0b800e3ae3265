// The unit of work that flows through the simulated datapath.
//
// Packets are intrusively refcounted and normally live in a PacketPool
// (net/packet_pool.hpp): PacketPtr is the pool-aware smart pointer behind
// which the whole datapath already programs, and releasing the last
// reference returns the buffer — payload capacity included — to its pool's
// free list instead of the heap. The refcount is deliberately non-atomic:
// a packet belongs to exactly one shard (one Simulation, one thread) at a
// time, and the only cross-thread handoff in the codebase is the parallel
// testbed's join barrier, which synchronizes. See DESIGN.md §9.
#pragma once

#include <cstdint>
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

/// A packet: the on-wire bytes (Ethernet frame without preamble/FCS) plus
/// simulation metadata that a real datapath would carry as side-band signals.
class Packet {
 public:
  Packet() = default;
  explicit Packet(Bytes data) : data_(std::move(data)) {}
  /// Copying duplicates the wire bytes and metadata but never the intrusive
  /// bookkeeping — the copy starts unreferenced and pool-less.
  Packet(const Packet& other) : data_(other.data_) { copy_metadata(other); }
  Packet& operator=(const Packet& other) {
    data_ = other.data_;
    copy_metadata(other);
    return *this;
  }
  Packet(Packet&& other) noexcept : data_(std::move(other.data_)) {
    copy_metadata(other);
  }
  Packet& operator=(Packet&& other) noexcept {
    data_ = std::move(other.data_);
    copy_metadata(other);
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

  [[nodiscard]] PacketId id() const { return id_; }
  void set_id(PacketId id) { id_ = id; }

  /// Picoseconds since simulation start when the first bit entered the
  /// module under test; used for latency accounting.
  [[nodiscard]] std::int64_t ingress_time_ps() const {
    return ingress_time_ps_;
  }
  void set_ingress_time_ps(std::int64_t t) { ingress_time_ps_ = t; }

  /// When the traffic source emitted the packet (end-to-end latency base;
  /// unlike ingress_time_ps this is never overwritten downstream).
  [[nodiscard]] std::int64_t created_time_ps() const {
    return created_time_ps_;
  }
  void set_created_time_ps(std::int64_t t) { created_time_ps_ = t; }

  /// Which module interface the packet arrived on (0 = edge/electrical,
  /// 1 = optical). Architecture shells use this for demux decisions.
  [[nodiscard]] int ingress_port() const { return ingress_port_; }
  void set_ingress_port(int port) { ingress_port_ = port; }

  /// Scratch metadata word usable by pipeline stages (models per-packet
  /// metadata bus in an RMT-style design).
  [[nodiscard]] std::uint64_t user_metadata() const { return user_metadata_; }
  void set_user_metadata(std::uint64_t v) { user_metadata_ = v; }

 private:
  friend class PacketPtr;
  friend class PacketPool;
  friend void detail::release_packet(Packet* packet);

  void copy_metadata(const Packet& other) {
    id_ = other.id_;
    ingress_time_ps_ = other.ingress_time_ps_;
    created_time_ps_ = other.created_time_ps_;
    ingress_port_ = other.ingress_port_;
    user_metadata_ = other.user_metadata_;
  }

  /// Scrub simulation state before the buffer re-enters the free list. The
  /// payload vector is cleared, not shrunk — capacity reuse is the point.
  void reset_for_reuse() {
    data_.clear();
    id_ = 0;
    ingress_time_ps_ = 0;
    created_time_ps_ = 0;
    ingress_port_ = 0;
    user_metadata_ = 0;
  }

  Bytes data_;
  PacketId id_ = 0;
  std::int64_t ingress_time_ps_ = 0;
  std::int64_t created_time_ps_ = 0;
  int ingress_port_ = 0;
  std::uint64_t user_metadata_ = 0;
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
/// in the fabric engine does not detach: the destination clones straight
/// into its own pool during its own round (PacketPool::clone).
[[nodiscard]] inline Packet detach_frame(const Packet& packet) {
  return packet;
}

}  // namespace flexsfp::net
