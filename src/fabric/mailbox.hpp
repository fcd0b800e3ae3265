// The by-value boundary of the windowed fabric engine (fabric_testbed.cpp):
// a frame crossing worlds is one record in a mailbox. Internal to the
// engine; a header so the handoff microbenchmark runs the engine's own
// append and read.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace flexsfp::fabric::detail {

/// The fixed head of one frame crossing worlds by value. The frame's bytes
/// follow it, padded to whole words. `arrival` already includes the link
/// propagation delay, which is what makes it ≥ every future window start.
struct Record {
  sim::TimePs arrival = 0;
  std::uint32_t source = 0;  // world index
  std::int32_t port = 0;     // module port, or crossbar input index
  std::uint64_t size = 0;    // frame bytes
  net::PacketMeta meta;
};
static_assert(std::is_trivially_copyable_v<Record> && sizeof(Record) % 8 == 0);
inline constexpr std::size_t kRecordWords = sizeof(Record) / 8;

/// The frames one thread's worlds sent to one destination in one round, as
/// records in world order (a thread advances its worlds in index order) and
/// then capture order. Only that thread writes it, at capture; the
/// destination reads it the next round. `round` says which round it holds,
/// so nobody clears it: the first capture of a round restarts it. Each
/// mailbox has its own cache line, because its destination reads the other
/// parity's mailbox while the sender writes this one.
struct alignas(64) Mailbox {
  void append(const Record& head, const net::Bytes& bytes) {
    const std::size_t words = kRecordWords + (bytes.size() + 7) / 8;
    if (buffer.size() < used + words) buffer.resize(2 * (used + words));
    std::memcpy(buffer.data() + used, &head, sizeof head);
    std::memcpy(buffer.data() + used + kRecordWords, bytes.data(),
                bytes.size());
    used += words;
  }

  /// Copy out the head of the record at word `at` and return where its
  /// bytes start; `at` moves to the next record.
  const std::uint64_t* read(std::size_t& at, Record& head) const {
    std::memcpy(static_cast<void*>(&head), buffer.data() + at, sizeof head);
    const std::uint64_t* bytes = buffer.data() + at + kRecordWords;
    at += kRecordWords + (head.size + 7) / 8;
    return bytes;
  }

  std::uint64_t round = 0;
  std::size_t used = 0;  // words of `buffer` holding this round's records
  std::vector<std::uint64_t> buffer;
};

}  // namespace flexsfp::fabric::detail
