#include "ppe/counters.hpp"

#include <stdexcept>

namespace flexsfp::ppe {

CounterBank::CounterBank(std::string name, std::size_t count)
    : name_(std::move(name)), packets_(count, 0), bytes_(count, 0) {}

void CounterBank::add(std::size_t index, std::uint64_t bytes) {
  if (index >= packets_.size()) {
    throw std::out_of_range("CounterBank::add index " + std::to_string(index));
  }
  ++packets_[index];
  bytes_[index] += bytes;
}

std::uint64_t CounterBank::packets(std::size_t index) const {
  return index < packets_.size() ? packets_[index] : 0;
}

std::uint64_t CounterBank::bytes(std::size_t index) const {
  return index < bytes_.size() ? bytes_[index] : 0;
}

std::vector<CounterSnapshot> CounterBank::snapshot() const {
  std::vector<CounterSnapshot> out;
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    out.push_back({name_, i, packets_[i], bytes_[i]});
  }
  return out;
}

void CounterBank::clear() {
  std::fill(packets_.begin(), packets_.end(), 0);
  std::fill(bytes_.begin(), bytes_.end(), 0);
}

}  // namespace flexsfp::ppe
