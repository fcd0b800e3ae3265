// Counter banks and CSR-style registers readable by the embedded control
// plane (§4.2: "read/write tables and counters with atomic, runtime
// updates").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/resource_model.hpp"

namespace flexsfp::ppe {

/// Snapshot of one counter for control-plane reads.
struct CounterSnapshot {
  std::string bank;
  std::size_t index = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;

  friend bool operator==(const CounterSnapshot&,
                         const CounterSnapshot&) = default;
};

/// A named bank of saturating 64-bit packet/byte counters.
class CounterBank {
 public:
  CounterBank(std::string name, std::size_t count);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t size() const { return packets_.size(); }

  void add(std::size_t index, std::uint64_t bytes);
  [[nodiscard]] std::uint64_t packets(std::size_t index) const;
  [[nodiscard]] std::uint64_t bytes(std::size_t index) const;
  void clear();

  /// Every slot in index order, named by this bank.
  [[nodiscard]] std::vector<CounterSnapshot> snapshot() const;

  [[nodiscard]] hw::ResourceUsage resource_usage() const {
    // Two 64-bit fields per counter.
    return hw::ResourceModel::counter_bank(packets_.size() * 2, 64);
  }

 private:
  std::string name_;
  std::vector<std::uint64_t> packets_;
  std::vector<std::uint64_t> bytes_;
};

}  // namespace flexsfp::ppe
