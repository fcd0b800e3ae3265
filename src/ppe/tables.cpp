#include "ppe/tables.hpp"

#include <algorithm>
#include <bit>

#include "net/flow.hpp"

namespace flexsfp::ppe {

namespace {

std::size_t round_up_pow2(std::size_t v) {
  return v <= 1 ? 1 : std::bit_ceil(v);
}

}  // namespace

ExactMatchTable::ExactMatchTable(std::string name, std::size_t capacity,
                                 std::uint32_t key_bits,
                                 std::uint32_t value_bits, std::size_t ways)
    : name_(std::move(name)),
      capacity_(capacity),
      key_bits_(key_bits),
      value_bits_(value_bits),
      ways_(std::max<std::size_t>(ways, 1)),
      bucket_count_(round_up_pow2((capacity + ways_ - 1) / ways_)),
      keys_(bucket_count_ * ways_, 0),
      values_(bucket_count_ * ways_, 0),
      valid_(bucket_count_ * ways_, 0) {}

std::array<std::size_t, 2> ExactMatchTable::bucket_indices(
    std::uint64_t key) const {
  // Two independent hash functions: d-left / two-choice placement keeps the
  // table usable to high load factors, as hardware exact-match pipelines do
  // with dual-ported SRAM banks.
  const std::size_t first = net::fnv1a_u64(key) & (bucket_count_ - 1);
  std::size_t second = net::murmur3_u64(key) & (bucket_count_ - 1);
  if (second == first) second = (second + 1) & (bucket_count_ - 1);
  return {first, second};
}

bool ExactMatchTable::insert(std::uint64_t key, std::uint64_t value) {
  constexpr std::size_t no_slot = ~std::size_t{0};
  const auto buckets = bucket_indices(key);
  // Pass 1: update in place, wherever the key already lives.
  for (const std::size_t bucket : buckets) {
    const std::size_t base = bucket * ways_;
    for (std::size_t way = 0; way < ways_; ++way) {
      if (valid_[base + way] && keys_[base + way] == key) {
        values_[base + way] = value;
        ++generation_;
        return true;
      }
    }
  }
  if (size_ >= capacity_) return false;
  // Pass 2: place into the less-loaded candidate bucket.
  std::size_t chosen = no_slot;
  std::size_t best_load = ways_ + 1;
  for (const std::size_t bucket : buckets) {
    const std::size_t base = bucket * ways_;
    std::size_t load = 0;
    std::size_t free_slot = no_slot;
    for (std::size_t way = 0; way < ways_; ++way) {
      if (valid_[base + way]) {
        ++load;
      } else if (free_slot == no_slot) {
        free_slot = base + way;
      }
    }
    if (free_slot != no_slot && load < best_load) {
      best_load = load;
      chosen = free_slot;
    }
  }
  if (chosen == no_slot) {
    // Cuckoo relocation: the control plane (not the datapath) walks a
    // bounded displacement chain, moving a victim to its alternate bucket
    // to make room. Bounded so a pathological key set cannot loop forever.
    if (!cuckoo_make_room(buckets[0], /*depth=*/0)) {
      ++bucket_overflows_;
      return false;
    }
    // A way in the first bucket is now free.
    const std::size_t base = buckets[0] * ways_;
    for (std::size_t way = 0; way < ways_; ++way) {
      if (!valid_[base + way]) {
        chosen = base + way;
        break;
      }
    }
    if (chosen == no_slot) {
      ++bucket_overflows_;
      return false;
    }
  }
  keys_[chosen] = key;
  values_[chosen] = value;
  valid_[chosen] = 1;
  ++size_;
  ++generation_;
  return true;
}

bool ExactMatchTable::cuckoo_make_room(std::size_t bucket, int depth) {
  constexpr int max_depth = 8;
  if (depth >= max_depth) return false;
  const std::size_t base = bucket * ways_;
  const auto relocate = [this](std::size_t from, std::size_t to) {
    keys_[to] = keys_[from];
    values_[to] = values_[from];
    valid_[to] = 1;
    valid_[from] = 0;
  };
  // Try a cheap move first: any resident whose alternate bucket has space.
  for (std::size_t way = 0; way < ways_; ++way) {
    const std::size_t slot = base + way;
    const auto alternates = bucket_indices(keys_[slot]);
    const std::size_t other =
        alternates[0] == bucket ? alternates[1] : alternates[0];
    const std::size_t other_base = other * ways_;
    for (std::size_t other_way = 0; other_way < ways_; ++other_way) {
      if (!valid_[other_base + other_way]) {
        relocate(slot, other_base + other_way);
        return true;
      }
    }
  }
  // No direct move: recurse on the first victim's alternate bucket.
  const auto alternates = bucket_indices(keys_[base]);
  const std::size_t other =
      alternates[0] == bucket ? alternates[1] : alternates[0];
  if (!cuckoo_make_room(other, depth + 1)) return false;
  const std::size_t other_base = other * ways_;
  for (std::size_t other_way = 0; other_way < ways_; ++other_way) {
    if (!valid_[other_base + other_way]) {
      relocate(base, other_base + other_way);
      return true;
    }
  }
  return false;
}

std::optional<std::uint64_t> ExactMatchTable::lookup(std::uint64_t key) const {
  for (const std::size_t bucket : bucket_indices(key)) {
    const std::size_t base = bucket * ways_;
    for (std::size_t way = 0; way < ways_; ++way) {
      if (valid_[base + way] && keys_[base + way] == key) {
        return values_[base + way];
      }
    }
  }
  return std::nullopt;
}

bool ExactMatchTable::erase(std::uint64_t key) {
  for (const std::size_t bucket : bucket_indices(key)) {
    const std::size_t base = bucket * ways_;
    for (std::size_t way = 0; way < ways_; ++way) {
      if (valid_[base + way] && keys_[base + way] == key) {
        valid_[base + way] = 0;
        --size_;
        ++generation_;
        return true;
      }
    }
  }
  return false;
}

void ExactMatchTable::clear() {
  std::fill(valid_.begin(), valid_.end(), std::uint8_t{0});
  size_ = 0;
  ++generation_;
}

void ExactMatchTable::for_each(
    const std::function<void(std::uint64_t, std::uint64_t)>& fn) const {
  for (std::size_t slot = 0; slot < keys_.size(); ++slot) {
    if (valid_[slot]) fn(keys_[slot], values_[slot]);
  }
}

TernaryTable::TernaryTable(std::string name, std::size_t capacity,
                           std::uint32_t key_bits)
    : name_(std::move(name)), capacity_(capacity), key_bits_(key_bits) {}

void TernaryTable::rebuild_mirror() {
  const std::size_t n = rules_.size();
  mask_hi_.resize(n);
  mask_lo_.resize(n);
  masked_value_hi_.resize(n);
  masked_value_lo_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    mask_hi_[i] = rules_[i].mask.hi;
    mask_lo_[i] = rules_[i].mask.lo;
    masked_value_hi_[i] = rules_[i].value.hi & rules_[i].mask.hi;
    masked_value_lo_[i] = rules_[i].value.lo & rules_[i].mask.lo;
  }
}

std::optional<std::uint64_t> TernaryTable::add_rule(TernaryRule rule) {
  if (rules_.size() >= capacity_) return std::nullopt;
  rule.rule_id = next_rule_id_++;
  // Keep the vector ordered by priority (desc), stable for equal priorities
  // (first-added wins), so match() is a straight scan.
  const auto pos = std::find_if(
      rules_.begin(), rules_.end(),
      [&rule](const TernaryRule& r) { return r.priority < rule.priority; });
  rules_.insert(pos, rule);
  rebuild_mirror();
  ++generation_;
  return rule.rule_id;
}

bool TernaryTable::erase_rule(std::uint64_t rule_id) {
  const auto it = std::find_if(
      rules_.begin(), rules_.end(),
      [rule_id](const TernaryRule& r) { return r.rule_id == rule_id; });
  if (it == rules_.end()) return false;
  rules_.erase(it);
  rebuild_mirror();
  ++generation_;
  return true;
}

void TernaryTable::clear() {
  rules_.clear();
  rebuild_mirror();
  ++generation_;
}

const TernaryRule* TernaryTable::match(TernaryKey key) const {
  // Scan the SoA mirror (masks + pre-masked values, priority-desc order);
  // rules_ carries the full metadata for the winning index.
  const std::size_t n = rules_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if ((key.hi & mask_hi_[i]) == masked_value_hi_[i] &&
        (key.lo & mask_lo_[i]) == masked_value_lo_[i]) {
      return &rules_[i];
    }
  }
  return nullptr;
}

std::optional<std::uint64_t> TernaryTable::lookup(TernaryKey key) const {
  const TernaryRule* rule = match(key);
  return rule != nullptr ? std::optional{rule->result} : std::nullopt;
}

namespace {
/// Does `first` (earlier in match order) win over every key `second`
/// matches? True when first's mask is a subset of second's and the two
/// agree on every bit of first's mask.
bool rule_covers(const TernaryRule& first, const TernaryRule& second) {
  const bool mask_subset =
      (first.mask.hi & second.mask.hi) == first.mask.hi &&
      (first.mask.lo & second.mask.lo) == first.mask.lo;
  return mask_subset &&
         (first.value.hi & first.mask.hi) ==
             (second.value.hi & first.mask.hi) &&
         (first.value.lo & first.mask.lo) == (second.value.lo & first.mask.lo);
}
}  // namespace

std::size_t TernaryTable::shadowed_rule_count() const {
  std::size_t shadowed = 0;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (rule_covers(rules_[j], rules_[i])) {
        ++shadowed;
        break;
      }
    }
  }
  return shadowed;
}

std::size_t TernaryTable::duplicate_rule_count() const {
  std::size_t duplicates = 0;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (rules_[j].value == rules_[i].value &&
          rules_[j].mask == rules_[i].mask) {
        ++duplicates;
        break;
      }
    }
  }
  return duplicates;
}

std::vector<std::pair<std::uint16_t, std::uint16_t>> expand_port_range(
    std::uint16_t lo, std::uint16_t hi) {
  std::vector<std::pair<std::uint16_t, std::uint16_t>> out;
  if (lo > hi) return out;
  std::uint32_t start = lo;
  const std::uint32_t end = std::uint32_t{hi} + 1;  // half-open [start, end)
  while (start < end) {
    // Largest power-of-two block aligned at `start` that fits before `end`.
    std::uint32_t block = 1;
    while ((start & ((block << 1) - 1)) == 0 && start + (block << 1) <= end &&
           (block << 1) <= 0x10000) {
      block <<= 1;
    }
    const auto mask = static_cast<std::uint16_t>(~(block - 1) & 0xffff);
    out.emplace_back(static_cast<std::uint16_t>(start), mask);
    start += block;
  }
  return out;
}

LpmTable::LpmTable(std::string name, std::size_t capacity)
    : name_(std::move(name)), capacity_(capacity) {}

void LpmTable::rebuild_mirror() {
  const std::size_t n = entries_.size();
  mask32_.resize(n);
  base_.resize(n);
  value_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Prefix addresses are canonicalized (host bits zero), so the stored
    // base equals address & mask and the scan test mirrors
    // Ipv4Prefix::contains exactly.
    mask32_[i] = entries_[i].prefix.mask();
    base_[i] = entries_[i].prefix.address().value();
    value_[i] = entries_[i].value;
  }
}

bool LpmTable::insert(net::Ipv4Prefix prefix, std::uint64_t value) {
  const auto it = std::find_if(
      entries_.begin(), entries_.end(),
      [&prefix](const Entry& e) { return e.prefix == prefix; });
  if (it != entries_.end()) {
    it->value = value;
    rebuild_mirror();
    ++generation_;
    return true;
  }
  if (entries_.size() >= capacity_) return false;
  const auto pos = std::find_if(entries_.begin(), entries_.end(),
                                [&prefix](const Entry& e) {
                                  return e.prefix.length() < prefix.length();
                                });
  entries_.insert(pos, Entry{prefix, value});
  rebuild_mirror();
  ++generation_;
  return true;
}

bool LpmTable::erase(net::Ipv4Prefix prefix) {
  const auto it = std::find_if(
      entries_.begin(), entries_.end(),
      [&prefix](const Entry& e) { return e.prefix == prefix; });
  if (it == entries_.end()) return false;
  entries_.erase(it);
  rebuild_mirror();
  ++generation_;
  return true;
}

std::optional<std::uint64_t> LpmTable::lookup(net::Ipv4Address addr) const {
  // Sorted by descending length: the first containing prefix (scanned on
  // the precomputed base/mask mirror) is the longest match.
  const std::uint32_t a = addr.value();
  const std::size_t n = base_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if ((a & mask32_[i]) == base_[i]) return value_[i];
  }
  return std::nullopt;
}

std::optional<std::uint64_t> LpmTable::lookup_exact(
    net::Ipv4Prefix prefix) const {
  const auto it = std::find_if(
      entries_.begin(), entries_.end(),
      [&prefix](const Entry& e) { return e.prefix == prefix; });
  return it != entries_.end() ? std::optional{it->value} : std::nullopt;
}

}  // namespace flexsfp::ppe
