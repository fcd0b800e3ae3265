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
#pragma once

#include <cstdint>
#include <functional>
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
  /// Insert or accumulate (counter: add, gauge: max) one sample.
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

  /// Fold `other` in: counters add, gauges take the max, new keys insert.
  /// Deterministic for a fixed merge order — the shard-merge primitive.
  void merge(const MetricSnapshot& other);
  /// Change since `base`: counters subtract (saturating at 0), gauges keep
  /// this snapshot's value, series absent from `base` pass through.
  [[nodiscard]] MetricSnapshot diff(const MetricSnapshot& base) const;
  /// Copy with `key=value` added to every series' labels (replacing any
  /// existing value) — how per-shard snapshots get their port identity
  /// before merging.
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
  [[nodiscard]] std::size_t lower_bound_key(std::string_view key) const;

  std::vector<MetricSample> samples_;  // sorted by key()
  std::vector<std::string> keys_;      // parallel cache of sample keys
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

  /// All registered series plus collector output, key-sorted.
  [[nodiscard]] MetricSnapshot snapshot() const;

  /// Zero every registered value (registrations and collectors persist).
  void reset_values();

 private:
  struct Meta {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::counter;
  };

  MetricId intern(std::string name, Labels labels, MetricKind kind);

  std::vector<Meta> meta_;
  std::vector<std::uint64_t> values_;
  std::unordered_map<std::string, std::uint32_t> by_key_;
  std::unordered_map<std::string, std::uint32_t> name_uses_;
  std::vector<std::pair<CollectorToken, Collector>> collectors_;
  CollectorToken next_collector_token_ = 1;
};

}  // namespace flexsfp::obs
