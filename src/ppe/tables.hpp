// Hardware-style match tables with runtime (control-plane) updates.
//
// These model what the FlexSFP datapath can actually build out of LSRAM and
// fabric: a two-choice (d-left) bucketed exact-match hash table (insertions
// FAIL when both candidate buckets fill, as in real pipelines — no rehashing
// at line rate), a TCAM-emulation
// ternary table with priorities and range-to-mask expansion, and an LPM
// table. Every table reports its FPGA resource footprint and carries a
// generation counter so readers can detect atomic update epochs (§4.2:
// "APIs to read/write tables ... with atomic, runtime updates at line rate").
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "hw/resource_model.hpp"
#include "net/addresses.hpp"

namespace flexsfp::ppe {

/// Two-choice bucketed exact-match table: `ways`-associative buckets, two
/// candidate buckets per key (d-left). Fixed geometry: capacity is
/// allocated up front (it is SRAM); an insert fails when both candidate
/// buckets are full.
class ExactMatchTable {
 public:
  /// `key_bits`/`value_bits` drive the resource estimate; runtime keys are
  /// 64-bit (wider logical keys are pre-hashed by the caller).
  ExactMatchTable(std::string name, std::size_t capacity,
                  std::uint32_t key_bits, std::uint32_t value_bits,
                  std::size_t ways = 4);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] double load_factor() const {
    return capacity_ > 0 ? double(size_) / double(capacity_) : 0.0;
  }

  /// Insert or update. False when the target bucket is full or the table is
  /// at capacity (hardware would report this to the control plane).
  bool insert(std::uint64_t key, std::uint64_t value);
  [[nodiscard]] std::optional<std::uint64_t> lookup(std::uint64_t key) const;
  bool erase(std::uint64_t key);
  void clear();

  /// Monotonic mutation epoch: bumped on every successful mutation, so a
  /// control-plane reader can snapshot-and-verify atomically.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  void for_each(
      const std::function<void(std::uint64_t, std::uint64_t)>& fn) const;

  [[nodiscard]] hw::ResourceUsage resource_usage() const {
    return hw::ResourceModel::exact_match_table(capacity_, key_bits_,
                                                value_bits_);
  }
  [[nodiscard]] std::uint32_t key_bits() const { return key_bits_; }
  [[nodiscard]] std::uint32_t value_bits() const { return value_bits_; }
  /// Insert attempts rejected because both candidate buckets were full.
  [[nodiscard]] std::uint64_t bucket_overflows() const {
    return bucket_overflows_;
  }

 private:
  [[nodiscard]] std::array<std::size_t, 2> bucket_indices(
      std::uint64_t key) const;
  /// Free one way in `bucket` by relocating residents to their alternate
  /// buckets (bounded-depth cuckoo walk). Returns false when no chain of
  /// at most max_depth moves exists.
  bool cuckoo_make_room(std::size_t bucket, int depth);

  std::string name_;
  std::size_t capacity_;
  std::uint32_t key_bits_;
  std::uint32_t value_bits_;
  std::size_t ways_;
  std::size_t bucket_count_;
  // SoA slot storage (bucket_count_ x ways_ slots each): a probe streams
  // through one cache line of keys per bucket instead of striding over
  // padded {valid,key,value} structs. Index order — and therefore for_each
  // iteration order — is identical to the former Entry vector.
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint8_t> valid_;
  std::size_t size_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t bucket_overflows_ = 0;
};

/// Key/mask pair up to 128 bits for ternary matching.
struct TernaryKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend constexpr auto operator<=>(const TernaryKey&,
                                    const TernaryKey&) = default;
};

struct TernaryRule {
  TernaryKey value;
  TernaryKey mask;  // 1 bits participate in the match
  std::uint32_t priority = 0;  // higher wins
  std::uint64_t result = 0;
  std::uint64_t rule_id = 0;  // assigned by the table
};

/// TCAM emulation: linear priority match over up to `capacity` rules.
class TernaryTable {
 public:
  TernaryTable(std::string name, std::size_t capacity, std::uint32_t key_bits);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return rules_.size(); }

  /// Returns the assigned rule id, or nullopt when at capacity.
  std::optional<std::uint64_t> add_rule(TernaryRule rule);
  bool erase_rule(std::uint64_t rule_id);
  void clear();

  [[nodiscard]] std::optional<std::uint64_t> lookup(TernaryKey key) const;
  /// The rule that would match, with its metadata (for counters).
  [[nodiscard]] const TernaryRule* match(TernaryKey key) const;

  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] hw::ResourceUsage resource_usage() const {
    return hw::ResourceModel::ternary_table(capacity_, key_bits_);
  }
  [[nodiscard]] const std::vector<TernaryRule>& rules() const { return rules_; }

  /// Rules that can never match: an earlier rule in match order has a
  /// subset mask and agrees on every bit of it, so it always wins first.
  [[nodiscard]] std::size_t shadowed_rule_count() const;
  /// Rules identical in (value, mask) to an earlier rule — TCAM space
  /// burned for nothing.
  [[nodiscard]] std::size_t duplicate_rule_count() const;

 private:
  /// Re-derive the SoA match mirror from rules_ (called on every mutation).
  void rebuild_mirror();

  std::string name_;
  std::size_t capacity_;
  std::uint32_t key_bits_;
  std::vector<TernaryRule> rules_;  // kept sorted by priority desc
  // SoA mirror of rules_ in match order: masks plus pre-masked values, so
  // the per-key scan is four contiguous streams and no per-rule re-masking.
  // rules_ stays the control-plane authority; the mirror is derived state.
  std::vector<std::uint64_t> mask_hi_;
  std::vector<std::uint64_t> mask_lo_;
  std::vector<std::uint64_t> masked_value_hi_;
  std::vector<std::uint64_t> masked_value_lo_;
  std::uint64_t next_rule_id_ = 1;
  std::uint64_t generation_ = 0;
};

/// Expand an inclusive [lo, hi] port range into the minimal set of
/// (value, mask) pairs over 16 bits — the classic TCAM range-expansion
/// technique. Returns up to 30 pairs ((value, wildcard-mask) tuples where
/// the mask has 1s for exact bits).
[[nodiscard]] std::vector<std::pair<std::uint16_t, std::uint16_t>>
expand_port_range(std::uint16_t lo, std::uint16_t hi);

/// Longest-prefix-match table over IPv4 destinations.
class LpmTable {
 public:
  LpmTable(std::string name, std::size_t capacity);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  bool insert(net::Ipv4Prefix prefix, std::uint64_t value);
  bool erase(net::Ipv4Prefix prefix);
  [[nodiscard]] std::optional<std::uint64_t> lookup(net::Ipv4Address addr) const;
  /// Value stored for exactly `prefix` (no longest-prefix fallback) — the
  /// control-plane view of one entry, unaffected by nested prefixes.
  [[nodiscard]] std::optional<std::uint64_t> lookup_exact(
      net::Ipv4Prefix prefix) const;
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] hw::ResourceUsage resource_usage() const {
    return hw::ResourceModel::lpm_table(capacity_);
  }

 private:
  struct Entry {
    net::Ipv4Prefix prefix;
    std::uint64_t value;
  };

  /// Re-derive the SoA lookup mirror from entries_ (on every mutation).
  void rebuild_mirror();

  std::string name_;
  std::size_t capacity_;
  std::vector<Entry> entries_;  // sorted by descending prefix length
  // SoA mirror of entries_ in lookup order with the netmask precomputed:
  // the longest-prefix scan is then (addr & mask_[i]) == base_[i] over
  // contiguous arrays. entries_ stays the control-plane authority.
  std::vector<std::uint32_t> mask32_;
  std::vector<std::uint32_t> base_;
  std::vector<std::uint64_t> value_;
  std::uint64_t generation_ = 0;
};

}  // namespace flexsfp::ppe
