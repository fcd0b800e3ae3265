#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace flexsfp::obs {

std::string to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::counter: return "counter";
    case MetricKind::gauge: return "gauge";
  }
  return "kind(?)";
}

namespace {

/// Render "name" or "name{k1=v1,k2=v2}" onto the end of `out`.
void append_key(std::string& out, std::string_view name, const Labels& labels) {
  if (labels.empty()) {
    out += name;
    return;
  }
  std::size_t length = name.size() + 1;  // name + '{' ... ',' or '}'
  for (const auto& [label, value] : labels) {
    length += label.size() + value.size() + 2;
  }
  out.reserve(out.size() + length);
  out += name;
  out += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) out += ',';
    out += labels[i].first;
    out += '=';
    out += labels[i].second;
  }
  out += '}';
}

}  // namespace

std::string metric_key(std::string_view name, const Labels& labels) {
  std::string key;
  append_key(key, name, labels);
  return key;
}

std::string MetricSample::key() const { return metric_key(name, labels); }

namespace {

Labels sorted_labels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

/// Accumulate `value` into `into` by its kind: counter adds, gauge maxes.
void fold(MetricSample& into, std::uint64_t value) {
  if (into.kind == MetricKind::counter) {
    into.value += value;
  } else {
    into.value = std::max(into.value, value);
  }
}

std::string json_quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace

std::size_t MetricSnapshot::lower_bound_key(std::string_view key) const {
  std::size_t low = 0;
  std::size_t high = size();
  while (low < high) {
    const std::size_t mid = low + (high - low) / 2;
    if (key_at(mid) < key) {
      low = mid + 1;
    } else {
      high = mid;
    }
  }
  return low;
}

void MetricSnapshot::add_sample(MetricSample sample) {
  sample.labels = sorted_labels(std::move(sample.labels));
  const std::string key = sample.key();
  const std::size_t at = lower_bound_key(key);
  if (at < size() && key_at(at) == key) {
    fold(samples_[at], sample.value);
    return;
  }
  const std::size_t begin = at == 0 ? 0 : key_ends_[at - 1];
  const auto length = static_cast<std::uint32_t>(key.size());
  keys_.insert(keys_.begin() + static_cast<std::ptrdiff_t>(begin), key.begin(),
               key.end());
  key_ends_.insert(key_ends_.begin() + static_cast<std::ptrdiff_t>(at),
                   static_cast<std::uint32_t>(begin));
  for (std::size_t i = at; i < key_ends_.size(); ++i) key_ends_[i] += length;
  samples_.insert(samples_.begin() + static_cast<std::ptrdiff_t>(at),
                  std::move(sample));
}

void MetricSnapshot::append(MetricSample sample, std::string_view key) {
  samples_.push_back(std::move(sample));
  keys_.insert(keys_.end(), key.begin(), key.end());
  key_ends_.push_back(static_cast<std::uint32_t>(keys_.size()));
}

void MetricSnapshot::reserve(std::size_t samples, std::size_t key_bytes) {
  samples_.reserve(samples);
  keys_.reserve(key_bytes);
  key_ends_.reserve(samples);
}

bool MetricSnapshot::contains(std::string_view key) const {
  const std::size_t at = lower_bound_key(key);
  return at < size() && key_at(at) == key;
}

std::uint64_t MetricSnapshot::value(std::string_view key) const {
  const std::size_t at = lower_bound_key(key);
  return at < size() && key_at(at) == key ? samples_[at].value : 0;
}

std::uint64_t MetricSnapshot::sum(std::string_view name) const {
  std::uint64_t total = 0;
  for (const MetricSample& sample : samples_) {
    if (sample.name == name) total += sample.value;
  }
  return total;
}

void MetricSnapshot::merge(MetricSnapshot other) {
  if (other.empty()) return;
  if (empty()) {
    *this = std::move(other);
    return;
  }
  // One pass over two sorted runs into fresh storage.
  MetricSnapshot out;
  out.reserve(size() + other.size(), keys_.size() + other.keys_.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < size() && j < other.size()) {
    const int order = key_at(i).compare(other.key_at(j));
    if (order > 0) {
      out.append(std::move(other.samples_[j]), other.key_at(j));
      ++j;
      continue;
    }
    if (order == 0) fold(samples_[i], other.samples_[j++].value);
    out.append(std::move(samples_[i]), key_at(i));
    ++i;
  }
  for (; i < size(); ++i) out.append(std::move(samples_[i]), key_at(i));
  for (; j < other.size(); ++j) {
    out.append(std::move(other.samples_[j]), other.key_at(j));
  }
  *this = std::move(out);
}

MetricSnapshot MetricSnapshot::diff(const MetricSnapshot& base) const {
  // Same keys in the same order; only counters found in `base` change.
  MetricSnapshot out = *this;
  std::size_t j = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    while (j < base.size() && base.key_at(j) < key_at(i)) ++j;
    if (j == base.size()) break;
    MetricSample& d = out.samples_[i];
    if (d.kind != MetricKind::counter || base.key_at(j) != key_at(i)) continue;
    const std::uint64_t before = base.samples_[j].value;
    d.value = d.value > before ? d.value - before : 0;
  }
  return out;
}

MetricSnapshot MetricSnapshot::with_label(const std::string& key,
                                          const std::string& value) const {
  std::vector<MetricSample> relabelled;
  relabelled.reserve(size());
  std::string keys;  // the relabeled keys, concatenated
  keys.reserve(keys_.size() + size() * (key.size() + value.size() + 2));
  std::vector<std::uint32_t> key_ends;
  key_ends.reserve(size());
  for (const MetricSample& original : samples_) {
    MetricSample& sample = relabelled.emplace_back(
        MetricSample{original.name, {}, original.kind, original.value});
    sample.labels.reserve(original.labels.size() + 1);
    sample.labels = original.labels;
    bool replaced = false;
    for (auto& label : sample.labels) {
      if (label.first == key) {
        label.second = value;
        replaced = true;
        break;
      }
    }
    if (!replaced) sample.labels.emplace_back(key, value);
    std::sort(sample.labels.begin(), sample.labels.end());
    append_key(keys, sample.name, sample.labels);
    key_ends.push_back(static_cast<std::uint32_t>(keys.size()));
  }
  // Sort once; a stable sort keeps equal keys in this snapshot's order, so
  // folding adjacent ones matches inserting the samples one at a time.
  std::vector<std::pair<std::string_view, std::uint32_t>> order;
  order.reserve(size());
  for (std::uint32_t i = 0; i < size(); ++i) {
    const std::uint32_t begin = i == 0 ? 0 : key_ends[i - 1];
    order.emplace_back(
        std::string_view(keys).substr(begin, key_ends[i] - begin), i);
  }
  std::stable_sort(
      order.begin(), order.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  MetricSnapshot out;
  out.reserve(size(), keys.size());
  for (const auto& [sorted_key, at] : order) {
    if (!out.empty() && out.key_at(out.size() - 1) == sorted_key) {
      fold(out.samples_.back(), relabelled[at].value);
      continue;
    }
    out.append(std::move(relabelled[at]), sorted_key);
  }
  return out;
}

std::string MetricSnapshot::to_json() const {
  std::string out = "{\"metrics\":[";
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const MetricSample& sample = samples_[i];
    if (i != 0) out += ',';
    out += "{\"key\":" + json_quote(key_at(i));
    out += ",\"name\":" + json_quote(sample.name);
    out += ",\"labels\":{";
    for (std::size_t j = 0; j < sample.labels.size(); ++j) {
      if (j != 0) out += ',';
      out += json_quote(sample.labels[j].first) + ":" +
             json_quote(sample.labels[j].second);
    }
    out += "},\"kind\":" + json_quote(to_string(sample.kind));
    out += ",\"value\":" + std::to_string(sample.value) + "}";
  }
  out += "]}";
  return out;
}

std::string MetricSnapshot::to_csv() const {
  std::string out = "key,kind,value\n";
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    out += '"';
    out += key_at(i);
    out += "\"," + to_string(samples_[i].kind) + ',' +
           std::to_string(samples_[i].value) + '\n';
  }
  return out;
}

MetricId MetricRegistry::intern(std::string name, Labels labels,
                                MetricKind kind) {
  labels = sorted_labels(std::move(labels));
  std::string key = metric_key(name, labels);
  const auto found = index_.lower_bound(key);
  if (found != index_.end() && found->first == key) {
    if (found->second.kind != kind) {
      throw std::invalid_argument("metric '" + key +
                                  "' re-registered with a different kind");
    }
    return MetricId{found->second.index};
  }
  const auto index = static_cast<std::uint32_t>(values_.size());
  values_.push_back(0);
  key_bytes_ += key.size();
  index_.emplace_hint(found, std::move(key),
                      Series{std::move(name), std::move(labels), kind, index});
  return MetricId{index};
}

MetricId MetricRegistry::counter(std::string name, Labels labels) {
  return intern(std::move(name), std::move(labels), MetricKind::counter);
}

MetricId MetricRegistry::gauge(std::string name, Labels labels) {
  return intern(std::move(name), std::move(labels), MetricKind::gauge);
}

std::uint64_t MetricRegistry::value(std::string_view key) const {
  const auto found = index_.find(key);
  return found != index_.end() ? values_[found->second.index] : 0;
}

std::string MetricRegistry::unique_name(const std::string& base) {
  const std::uint32_t uses = name_uses_[base]++;
  return uses == 0 ? base : base + std::to_string(uses);
}

MetricRegistry::CollectorToken MetricRegistry::register_collector(
    Collector collector) {
  const CollectorToken token = next_collector_token_++;
  collectors_.emplace_back(token, std::move(collector));
  return token;
}

void MetricRegistry::unregister_collector(CollectorToken token) {
  std::erase_if(collectors_,
                [token](const auto& entry) { return entry.first == token; });
}

MetricSnapshot MetricRegistry::snapshot() const {
  MetricSnapshot out;
  out.reserve(index_.size(), key_bytes_);
  for (const auto& [key, series] : index_) {
    out.append(MetricSample{series.name, series.labels, series.kind,
                            values_[series.index]},
               key);
  }
  MetricSnapshot collected;
  for (const auto& [token, collector] : collectors_) collector(collected);
  out.merge(std::move(collected));
  return out;
}

void MetricRegistry::reset_values() {
  std::fill(values_.begin(), values_.end(), 0);
}

}  // namespace flexsfp::obs
