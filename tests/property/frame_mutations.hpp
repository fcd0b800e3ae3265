// Malformed-frame generators shared by the parser and app property suites:
// every truncation of a frame, every single-byte inversion, and seeded
// random overwrites of its leading (header) bytes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/bytes.hpp"
#include "sim/random.hpp"

namespace flexsfp::net::mutations {

/// Every proper prefix of `frame`, lengths 0 .. min(size, max_len) - 1.
inline std::vector<Bytes> every_truncation(const Bytes& frame,
                                           std::size_t max_len = SIZE_MAX) {
  std::vector<Bytes> out;
  const std::size_t end = std::min(frame.size(), max_len);
  for (std::size_t len = 0; len < end; ++len) {
    out.emplace_back(frame.begin(),
                     frame.begin() + static_cast<std::ptrdiff_t>(len));
  }
  return out;
}

/// `frame` with byte i inverted, for every i < min(size, max_len).
inline std::vector<Bytes> every_byte_inverted(const Bytes& frame,
                                              std::size_t max_len = SIZE_MAX) {
  std::vector<Bytes> out;
  const std::size_t end = std::min(frame.size(), max_len);
  for (std::size_t i = 0; i < end; ++i) {
    out.push_back(frame);
    out.back()[i] = static_cast<std::uint8_t>(~frame[i]);
  }
  return out;
}

/// `count` copies of `frame`, each with one to three bytes among the first
/// `span` set to random values and, one time in four, cut at a random
/// length. Deterministic for a given `seed`.
inline std::vector<Bytes> seeded_mutations(const Bytes& frame,
                                           std::uint64_t seed,
                                           std::size_t count,
                                           std::size_t span) {
  std::vector<Bytes> out;
  if (frame.empty()) return out;
  sim::Rng rng(seed);
  const std::size_t reach = std::min(frame.size(), span);
  for (std::size_t n = 0; n < count; ++n) {
    Bytes mutated = frame;
    const std::uint64_t edits = rng.uniform(1, 3);
    for (std::uint64_t e = 0; e < edits; ++e) {
      mutated[rng.uniform(0, reach - 1)] =
          static_cast<std::uint8_t>(rng.uniform(0, 255));
    }
    if (rng.uniform(0, 3) == 0) mutated.resize(rng.uniform(0, reach));
    out.push_back(std::move(mutated));
  }
  return out;
}

}  // namespace flexsfp::net::mutations
