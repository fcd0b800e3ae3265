// Simulation time base and data-rate arithmetic.
//
// Time is a signed 64-bit picosecond count: fine enough to resolve a single
// 156.25 MHz clock cycle (6400 ps) and a 64-byte frame at 10 Gb/s (67.2 ns),
// wide enough for > 100 days of simulated time.
#pragma once

#include <cstdint>
#include <string>

namespace flexsfp::sim {

using TimePs = std::int64_t;

constexpr TimePs operator""_ps(unsigned long long v) {
  return static_cast<TimePs>(v);
}
constexpr TimePs operator""_ns(unsigned long long v) {
  return static_cast<TimePs>(v) * 1000;
}
constexpr TimePs operator""_us(unsigned long long v) {
  return static_cast<TimePs>(v) * 1000 * 1000;
}
constexpr TimePs operator""_ms(unsigned long long v) {
  return static_cast<TimePs>(v) * 1000 * 1000 * 1000;
}
constexpr TimePs operator""_s(unsigned long long v) {
  return static_cast<TimePs>(v) * 1000 * 1000 * 1000 * 1000;
}

/// The last representable instant. schedule_in clamps here instead of
/// wrapping, so "practically forever" timers near the 64-bit horizon stay
/// ordered after every finite event instead of landing in the past.
inline constexpr TimePs time_horizon = INT64_MAX;

/// a + b clamped to [0, time_horizon] — the overflow-safe way to turn a
/// delay into an absolute timestamp. Negative sums clamp to 0 (the
/// simulation epoch); positive overflow clamps to the horizon.
[[nodiscard]] constexpr TimePs saturating_add(TimePs a, TimePs b) {
  TimePs sum = 0;
  if (__builtin_add_overflow(a, b, &sum)) {
    return b > 0 ? time_horizon : 0;
  }
  return sum < 0 ? 0 : sum;
}

[[nodiscard]] constexpr double to_seconds(TimePs t) { return double(t) * 1e-12; }
[[nodiscard]] constexpr double to_micros(TimePs t) { return double(t) * 1e-6; }
[[nodiscard]] constexpr double to_nanos(TimePs t) { return double(t) * 1e-3; }
[[nodiscard]] constexpr TimePs from_seconds(double s) {
  return static_cast<TimePs>(s * 1e12);
}

/// Human-readable duration ("1.234 us").
[[nodiscard]] std::string format_time(TimePs t);

/// A link or bus data rate.
class DataRate {
 public:
  constexpr DataRate() = default;
  explicit constexpr DataRate(std::uint64_t bits_per_second)
      : bps_(bits_per_second) {}

  [[nodiscard]] static constexpr DataRate gbps(double g) {
    return DataRate{static_cast<std::uint64_t>(g * 1e9)};
  }
  [[nodiscard]] static constexpr DataRate mbps(double m) {
    return DataRate{static_cast<std::uint64_t>(m * 1e6)};
  }

  [[nodiscard]] constexpr std::uint64_t bps() const { return bps_; }

  /// Time to put `bytes` on the wire at this rate.
  [[nodiscard]] constexpr TimePs serialization_time(std::size_t bytes) const {
    // ps = bits * 1e12 / bps. Split into whole seconds-worth and remainder
    // so the arithmetic stays inside 64 bits for any frame size.
    const std::uint64_t bits = std::uint64_t{bytes} * 8;
    const std::uint64_t whole = bits / bps_;
    const std::uint64_t rem = bits % bps_;
    return static_cast<TimePs>(whole * 1000000000000ull +
                               rem * 1000000000000ull / bps_);
  }

  friend constexpr auto operator<=>(const DataRate&, const DataRate&) = default;

 private:
  std::uint64_t bps_ = 0;
};

/// 10GBASE-R line rate (payload data rate of an SFP+ lane).
inline constexpr DataRate line_rate_10g{10'000'000'000ull};

/// One-entry memo over DataRate::serialization_time. The divide pair in
/// serialization_time is hot-path arithmetic that runs once per packet per
/// transmitting element, and packet sizes repeat heavily (fixed-size
/// sweeps, the 3-point IMIX mix), so remembering the last size answers
/// almost every call. Exact: a miss recomputes with the same integer math.
class SerializationTimer {
 public:
  constexpr SerializationTimer() = default;
  explicit constexpr SerializationTimer(DataRate rate) : rate_(rate) {}

  [[nodiscard]] TimePs operator()(std::size_t bytes) {
    if (bytes != last_bytes_) {
      last_bytes_ = bytes;
      last_ps_ = rate_.serialization_time(bytes);
    }
    return last_ps_;
  }

  [[nodiscard]] constexpr DataRate rate() const { return rate_; }

 private:
  DataRate rate_{};
  std::size_t last_bytes_ = ~std::size_t{0};
  TimePs last_ps_ = 0;
};

}  // namespace flexsfp::sim
