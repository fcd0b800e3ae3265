// The unified metric registry: the one place every layer's counters live.
//
// The paper treats telemetry as a first-class in-cable function (§3), and
// its evaluation is measurement arithmetic end to end — so counters cannot
// stay five bespoke mechanisms scattered across sim/ppe/sfp/fabric. A
// MetricRegistry holds named, labeled counters and gauges
// ("engine.forwarded{app=nat,stage=ppe}") behind integer handles: the hot
// path is one vector-indexed add, registration/snapshotting carry all the
// strings. Snapshots are key-sorted and merge deterministically, so the
// flow-sharded parallel testbed can fold per-shard registries in shard
// order and stay bit-identical to the sequential oracle.
//
// Cost of each operation, for a registry of n series and snapshots of n
// and m series. A fabric carries one crosspoint series pair per (input,
// output), so n grows with modules²; nothing that builds a whole snapshot
// costs more than O(n log n):
//   registry add/set/set_max/value(id)   O(1), one array access
//   registry counter/gauge (intern)      O(log n): keeps the key order
//   registry value(key)                  O(log n), no string built
//   registry snapshot()                  O(n) walk of the key order, plus
//                                        collector output (c samples,
//                                        O(c²) worst case) and one merge
//   snapshot add_sample                  O(n): a sorted insert
//   snapshot contains/value(key)         O(log n)
//   snapshot merge                       O(n + m), one pass of two runs
//   snapshot diff                        O(n + m), walks base alongside
//   snapshot with_label                  O(n log n): relabel, sort once
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace flexsfp::obs {

/// Label set of one metric series, e.g. {{"app","nat"},{"port","0"}}.
/// Sorted by key when interned so equal sets always render the same key.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : std::uint8_t {
  counter,  // monotone; merge = sum, diff = subtract
  gauge,    // level/high-watermark; merge = max, diff = keep newer
};

[[nodiscard]] std::string to_string(MetricKind kind);

/// Handle to one registered series. Cheap to copy; add/set through it is a
/// single array access. An invalid (default) id makes add/set a no-op so
/// unbound components cost one branch, not a crash.
struct MetricId {
  static constexpr std::uint32_t invalid = 0xffffffffu;
  std::uint32_t index = invalid;

  [[nodiscard]] bool valid() const { return index != invalid; }
};

/// One series in a snapshot: identity + kind + value.
struct MetricSample {
  std::string name;
  Labels labels;  // sorted by key
  MetricKind kind = MetricKind::counter;
  std::uint64_t value = 0;

  /// Canonical rendering: "name" or "name{k1=v1,k2=v2}".
  [[nodiscard]] std::string key() const;

  friend bool operator==(const MetricSample&, const MetricSample&) = default;
};

[[nodiscard]] std::string metric_key(std::string_view name,
                                     const Labels& labels);

/// Point-in-time, key-sorted view of a registry (plus collector output).
/// Value semantics: merge across shards, diff across time, render to
/// JSON/CSV for machines.
class MetricSnapshot {
 public:
  /// Insert or accumulate (counter: add, gauge: max) one sample. On a key
  /// already present the present kind wins. A sorted insert: the way to add
  /// a few series, not to build a large snapshot.
  void add_sample(MetricSample sample);

  [[nodiscard]] const std::vector<MetricSample>& samples() const {
    return samples_;
  }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] bool contains(std::string_view key) const;
  /// Value of the series with this exact key; 0 when absent.
  [[nodiscard]] std::uint64_t value(std::string_view key) const;
  /// Sum of every series whose name matches exactly (any labels).
  [[nodiscard]] std::uint64_t sum(std::string_view name) const;

  /// Fold `other` in: counters add, gauges take the max, new keys insert;
  /// on a key in both, this snapshot's kind wins. Deterministic for a fixed
  /// merge order — the shard-merge primitive. Taken by value: a temporary
  /// (a relabeled shard snapshot) moves its series in instead of copying.
  void merge(MetricSnapshot other);
  /// Change since `base`: counters subtract (saturating at 0), gauges keep
  /// this snapshot's value, series absent from `base` pass through.
  [[nodiscard]] MetricSnapshot diff(const MetricSnapshot& base) const;
  /// Copy with `key=value` added to every series' labels (replacing any
  /// existing value) — how per-shard snapshots get their port identity
  /// before merging. Series whose keys become equal fold as in add_sample,
  /// in this snapshot's order.
  [[nodiscard]] MetricSnapshot with_label(const std::string& key,
                                          const std::string& value) const;

  /// {"metrics":[{"key":...,"name":...,"labels":{...},"kind":...,
  ///              "value":N},...]}
  [[nodiscard]] std::string to_json() const;
  /// Header "key,kind,value", one series per line. Keys are quoted.
  [[nodiscard]] std::string to_csv() const;

  friend bool operator==(const MetricSnapshot&,
                         const MetricSnapshot&) = default;

 private:
  friend class MetricRegistry;  // fills a snapshot in key order directly

  [[nodiscard]] std::string_view key_at(std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : key_ends_[i - 1];
    return {keys_.data() + begin, key_ends_[i] - begin};
  }
  [[nodiscard]] std::size_t lower_bound_key(std::string_view key) const;
  /// Append a series whose key sorts after every present key.
  void append(MetricSample sample, std::string_view key);
  void reserve(std::size_t samples, std::size_t key_bytes);

  std::vector<MetricSample> samples_;    // sorted by key()
  // Every sample's key, in order. A vector, not a std::string: assigning
  // an empty snapshot must free it, and a string keeps its buffer when
  // assigned a short (inline) one.
  std::vector<char> keys_;
  std::vector<std::uint32_t> key_ends_;  // offset in keys_ just past key i
};

/// The per-simulation registry. Not thread-safe by design: one registry per
/// shard (per sim::Simulation), merged at the join barrier — exactly the
/// FlexSFP scaling model of independent per-port modules.
class MetricRegistry {
 public:
  using Collector = std::function<void(MetricSnapshot&)>;
  using CollectorToken = std::uint64_t;

  /// Register (or find) a counter/gauge series. Same name+labels returns
  /// the same handle — series identity is the rendered key.
  MetricId counter(std::string name, Labels labels = {});
  MetricId gauge(std::string name, Labels labels = {});

  // --- hot path -------------------------------------------------------------
  void add(MetricId id, std::uint64_t delta = 1) {
    if (id.valid()) values_[id.index] += delta;
  }
  /// Take back an earlier add(), for a component that counted ahead of the
  /// clock and has to retract (EgressArbiter's pull-back).
  void sub(MetricId id, std::uint64_t delta = 1) {
    if (id.valid()) values_[id.index] -= delta;
  }
  void set(MetricId id, std::uint64_t value) {
    if (id.valid()) values_[id.index] = value;
  }
  /// Raise-to-at-least, for high-watermark gauges.
  void set_max(MetricId id, std::uint64_t value) {
    if (id.valid() && values_[id.index] < value) values_[id.index] = value;
  }

  [[nodiscard]] std::uint64_t value(MetricId id) const {
    return id.valid() ? values_[id.index] : 0;
  }
  /// Slow-path read by rendered key; 0 when absent.
  [[nodiscard]] std::uint64_t value(std::string_view key) const;
  void zero(MetricId id) {
    if (id.valid()) values_[id.index] = 0;
  }

  /// Deterministic per-registry instance names: "ppe", "ppe1", "ppe2"...
  /// in construction order, so identically built shards produce identical
  /// keys while two components in one simulation never collide.
  [[nodiscard]] std::string unique_name(const std::string& base);

  /// Collectors pull externally owned tallies (e.g. an app's in-datapath
  /// CounterBank) into every snapshot, so hardware-resident counters are
  /// read through the registry without being double-counted. The token
  /// unregisters when the owner dies.
  CollectorToken register_collector(Collector collector);
  void unregister_collector(CollectorToken token);

  /// All registered series plus collector output, key-sorted. Collectors
  /// fill a side snapshot of their own (their samples fold there as in
  /// add_sample), which then folds into the registered series with one
  /// merge: a registered series keeps its kind.
  [[nodiscard]] MetricSnapshot snapshot() const;

  /// Zero every registered value (registrations and collectors persist).
  void reset_values();

 private:
  struct Series {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::counter;
    std::uint32_t index = 0;  // into values_
  };

  MetricId intern(std::string name, Labels labels, MetricKind kind);

  std::vector<std::uint64_t> values_;
  // Rendered key -> series, in key order: snapshot() walks it, value(key)
  // and intern look up in it. The one place a registered key is stored.
  std::map<std::string, Series, std::less<>> index_;
  std::size_t key_bytes_ = 0;  // total length of the keys in index_
  std::unordered_map<std::string, std::uint32_t> name_uses_;
  std::vector<std::pair<CollectorToken, Collector>> collectors_;
  CollectorToken next_collector_token_ = 1;
};

}  // namespace flexsfp::obs
