// Differential oracle for the snapshot operations: a reference that builds
// every result the simple way, one add_sample at a time, against
// MetricRegistry::snapshot, MetricSnapshot::merge, diff and with_label on
// seeded random cases. Results must be equal sample for sample, in order.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace flexsfp::obs {
namespace {

// --- reference: one add_sample per series --------------------------------

MetricSnapshot reference_merge(MetricSnapshot into,
                               const MetricSnapshot& other) {
  for (const MetricSample& sample : other.samples()) into.add_sample(sample);
  return into;
}

MetricSnapshot reference_diff(const MetricSnapshot& now,
                              const MetricSnapshot& base) {
  MetricSnapshot out;
  for (MetricSample sample : now.samples()) {
    if (sample.kind == MetricKind::counter) {
      const std::uint64_t before = base.value(sample.key());
      sample.value = sample.value > before ? sample.value - before : 0;
    }
    out.add_sample(std::move(sample));
  }
  return out;
}

MetricSnapshot reference_with_label(const MetricSnapshot& snap,
                                    const std::string& key,
                                    const std::string& value) {
  MetricSnapshot out;
  for (MetricSample sample : snap.samples()) {
    const auto at = std::find_if(
        sample.labels.begin(), sample.labels.end(),
        [&key](const auto& label) { return label.first == key; });
    if (at != sample.labels.end()) {
      at->second = value;
    } else {
      sample.labels.emplace_back(key, value);
    }
    out.add_sample(std::move(sample));
  }
  return out;
}

// --- seeded random cases -----------------------------------------------------

class Cases {
 public:
  explicit Cases(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(rng_() % n);
  }

  /// Names chosen so rendered keys order across the '.' / '{' boundary:
  /// "a" < "a.b" < "a{...}" and "a.b{...}" < "a{...}".
  std::string name() {
    static const char* const kNames[] = {"a", "a.b", "ab", "pkts",
                                         "pkts.bytes", "z"};
    return kNames[below(std::size(kNames))];
  }

  std::string label_key() {
    static const char* const kKeys[] = {"app", "port", "shard", "stage"};
    return kKeys[below(std::size(kKeys))];
  }

  std::string label_value() {
    static const char* const kValues[] = {"0", "1", "10", "2", "x"};
    return kValues[below(std::size(kValues))];
  }

  /// Up to three labels with distinct keys, in shuffled order.
  Labels labels() {
    Labels out;
    const std::size_t count = below(4);
    while (out.size() < count) {
      std::string key = label_key();
      const bool seen =
          std::any_of(out.begin(), out.end(),
                      [&key](const auto& label) { return label.first == key; });
      if (!seen) out.emplace_back(std::move(key), label_value());
    }
    shuffle(out);
    return out;
  }

  MetricKind kind() {
    return below(2) == 0 ? MetricKind::counter : MetricKind::gauge;
  }

  std::uint64_t value() {
    // Mostly small, sometimes near the top so sums wrap as they would.
    return below(8) == 0 ? ~std::uint64_t{0} - below(1000) : below(1u << 20);
  }

  MetricSample sample() { return {name(), labels(), kind(), value()}; }

  void shuffle(Labels& labels) {
    std::shuffle(labels.begin(), labels.end(), rng_);
  }

  /// A snapshot of up to `max` samples drawn from the small key space above,
  /// so keys repeat within and across snapshots and kinds clash.
  MetricSnapshot snapshot(std::size_t max) {
    MetricSnapshot out;
    const std::size_t count = below(max + 1);
    for (std::size_t i = 0; i < count; ++i) out.add_sample(sample());
    return out;
  }

 private:
  std::mt19937_64 rng_;
};

constexpr std::uint64_t kSeeds = 300;

TEST(SnapshotOracle, MergeMatchesOneInsertAtATime) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Cases cases(seed);
    const MetricSnapshot a = cases.snapshot(40);
    const MetricSnapshot b = cases.snapshot(40);
    MetricSnapshot merged = a;
    merged.merge(b);
    ASSERT_EQ(merged, reference_merge(a, b)) << "seed " << seed;
    for (const MetricSample& s : merged.samples()) {  // keys index samples
      ASSERT_EQ(merged.value(s.key()), s.value) << "seed " << seed;
    }
    MetricSnapshot twice = a;
    twice.merge(twice);
    ASSERT_EQ(twice, reference_merge(a, a)) << "seed " << seed;
  }
}

TEST(SnapshotOracle, MergeFoldsByTheFirstKind) {
  MetricSnapshot a;
  a.add_sample({"x", {}, MetricKind::counter, 5});
  MetricSnapshot b;
  b.add_sample({"x", {}, MetricKind::gauge, 3});
  MetricSnapshot ab = a;
  ab.merge(b);
  EXPECT_EQ(ab, reference_merge(a, b));
  EXPECT_EQ(ab.value("x"), 8u);  // counter kept: 5 + 3
  MetricSnapshot ba = b;
  ba.merge(a);
  EXPECT_EQ(ba, reference_merge(b, a));
  EXPECT_EQ(ba.value("x"), 5u);  // gauge kept: max(3, 5)
  EXPECT_EQ(ba.samples()[0].kind, MetricKind::gauge);
}

TEST(SnapshotOracle, DiffMatchesOneInsertAtATime) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Cases cases(seed);
    const MetricSnapshot base = cases.snapshot(40);
    MetricSnapshot now = base;
    now.merge(cases.snapshot(40));  // later values on shared keys
    ASSERT_EQ(now.diff(base), reference_diff(now, base)) << "seed " << seed;
    const MetricSnapshot other = cases.snapshot(40);  // unrelated base
    ASSERT_EQ(now.diff(other), reference_diff(now, other)) << "seed " << seed;
    ASSERT_EQ(base.diff(now), reference_diff(base, now)) << "seed " << seed;
  }
}

TEST(SnapshotOracle, WithLabelMatchesOneInsertAtATime) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Cases cases(seed);
    const MetricSnapshot snap = cases.snapshot(60);
    // Often a key the samples already carry: replacing its value makes
    // distinct series collide and fold.
    const std::string key = cases.label_key();
    const std::string value = cases.label_value();
    ASSERT_EQ(snap.with_label(key, value),
              reference_with_label(snap, key, value))
        << "seed " << seed;
    ASSERT_EQ(snap.with_label("new", value),
              reference_with_label(snap, "new", value))
        << "seed " << seed;
  }
}

TEST(SnapshotOracle, ShardMergeMatchesOneInsertAtATime) {
  // The parallel testbeds' shape: label each shard, fold in shard order.
  for (std::uint64_t seed = 0; seed < kSeeds / 10; ++seed) {
    Cases cases(seed);
    MetricSnapshot merged;
    MetricSnapshot reference;
    for (int shard = 0; shard < 12; ++shard) {
      const MetricSnapshot part = cases.snapshot(30);
      const std::string label = std::to_string(shard % 5);  // shards collide
      merged.merge(part.with_label("shard", label));
      reference = reference_merge(
          reference, reference_with_label(part, "shard", label));
    }
    ASSERT_EQ(merged, reference) << "seed " << seed;
  }
}

TEST(SnapshotOracle, RegistrySnapshotMatchesOneInsertAtATime) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Cases cases(seed);
    MetricRegistry registry;
    // Registration order is random; a rendered key keeps the kind of its
    // first registration (a second kind would throw).
    std::vector<MetricSample> registered;      // in registration order
    std::map<std::string, std::size_t> slot;  // rendered key -> registered
    const std::size_t series = cases.below(50);
    for (std::size_t i = 0; i < series; ++i) {
      const MetricSample s = cases.sample();
      Labels sorted = s.labels;
      std::sort(sorted.begin(), sorted.end());
      const auto [it, fresh] =
          slot.emplace(metric_key(s.name, sorted), registered.size());
      if (fresh) registered.push_back({s.name, sorted, s.kind, 0});
      MetricSample& r = registered[it->second];
      registry.set(r.kind == MetricKind::counter
                       ? registry.counter(s.name, s.labels)
                       : registry.gauge(s.name, s.labels),
                   s.value);
      r.value = s.value;
    }

    // Collectors: series of their own (kinds may clash between
    // collectors) and series on registered keys, with shuffled labels.
    // Collector output folds among itself before it meets the registered
    // series, so a registered key carries its registered kind here; the
    // single-sample kind clash has its own test below.
    std::vector<std::vector<MetricSample>> collected(cases.below(4));
    for (auto& out : collected) {
      const std::size_t count = cases.below(12);
      for (std::size_t i = 0; i < count; ++i) {
        const bool on_registered = !registered.empty() && cases.below(2) == 0;
        MetricSample s = on_registered
                             ? registered[cases.below(registered.size())]
                             : cases.sample();
        s.value = cases.value();
        cases.shuffle(s.labels);
        Labels sorted = s.labels;
        std::sort(sorted.begin(), sorted.end());
        const auto r = slot.find(metric_key(s.name, sorted));
        if (r != slot.end()) s.kind = registered[r->second].kind;
        out.push_back(std::move(s));
      }
      registry.register_collector([&out](MetricSnapshot& snap) {
        for (const MetricSample& s : out) snap.add_sample(s);
      });
    }

    MetricSnapshot reference;
    for (const MetricSample& r : registered) reference.add_sample(r);
    for (const auto& out : collected) {
      for (const MetricSample& s : out) reference.add_sample(s);
    }
    const MetricSnapshot snap = registry.snapshot();
    ASSERT_EQ(snap, reference) << "seed " << seed;
    for (const MetricSample& r : registered) {
      ASSERT_EQ(registry.value(r.key()), r.value) << "seed " << seed;
    }
  }
}

TEST(SnapshotOracle, CollectorSampleOnARegisteredKeyTakesItsKind) {
  MetricRegistry registry;
  registry.set(registry.gauge("depth", {{"port", "0"}}), 7);
  registry.add(registry.counter("pkts"), 10);
  registry.register_collector([](MetricSnapshot& snap) {
    snap.add_sample({"depth", {{"port", "0"}}, MetricKind::counter, 5});
    snap.add_sample({"pkts", {}, MetricKind::gauge, 4});
    snap.add_sample({"own", {}, MetricKind::counter, 1});
  });
  MetricSnapshot reference;
  reference.add_sample({"depth", {{"port", "0"}}, MetricKind::gauge, 7});
  reference.add_sample({"pkts", {}, MetricKind::counter, 10});
  reference.add_sample({"depth", {{"port", "0"}}, MetricKind::counter, 5});
  reference.add_sample({"pkts", {}, MetricKind::gauge, 4});
  reference.add_sample({"own", {}, MetricKind::counter, 1});
  const MetricSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap, reference);
  EXPECT_EQ(snap.value("depth{port=0}"), 7u);  // gauge: max(7, 5)
  EXPECT_EQ(snap.value("pkts"), 14u);          // counter: 10 + 4
}

}  // namespace
}  // namespace flexsfp::obs
