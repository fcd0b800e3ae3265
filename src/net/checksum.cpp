#include "net/checksum.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace flexsfp::net {

std::uint32_t checksum_partial(BytesView data, std::uint32_t initial) {
  // Two of these run for every simulated packet (builder + validator), so
  // the sum is accumulated eight bytes per step in native byte order and
  // converted to big-endian word space only once at the end — RFC 1071 §2
  // (B): byte-swapping the folded sum equals summing swapped words. The
  // returned value stays a plain sum of big-endian 16-bit words, so chained
  // calls (pseudo-header + payload) and checksum_finish are unaffected.
  if constexpr (std::endian::native == std::endian::little) {
    const std::uint8_t* p = data.data();
    std::size_t n = data.size();
    std::uint64_t sum = 0;
    while (n >= 8) {
      std::uint32_t a = 0;
      std::uint32_t b = 0;
      std::memcpy(&a, p, 4);
      std::memcpy(&b, p + 4, 4);
      sum += std::uint64_t(a) + b;
      p += 8;
      n -= 8;
    }
    if (n >= 4) {
      std::uint32_t w = 0;
      std::memcpy(&w, p, 4);
      sum += w;
      p += 4;
      n -= 4;
    }
    if (n >= 2) {
      std::uint16_t w = 0;
      std::memcpy(&w, p, 2);
      sum += w;
      p += 2;
      n -= 2;
    }
    // A trailing odd byte is the high byte of a zero-padded big-endian
    // word, which reads back as just that byte in little-endian order.
    if (n != 0) sum += *p;
    while ((sum >> 16) != 0) sum = (sum & 0xffff) + (sum >> 16);
    const auto folded = static_cast<std::uint16_t>(sum);
    return initial +
           static_cast<std::uint32_t>(std::uint16_t((folded << 8) |
                                                    (folded >> 8)));
  } else {
    std::uint32_t sum = initial;
    std::size_t i = 0;
    for (; i + 1 < data.size(); i += 2) {
      sum += static_cast<std::uint32_t>((data[i] << 8) | data[i + 1]);
    }
    if (i < data.size()) {
      sum += static_cast<std::uint32_t>(data[i] << 8);  // pad odd byte
    }
    return sum;
  }
}

std::uint16_t checksum_finish(std::uint32_t partial) {
  // Two folds carry any 32-bit sum into 16 bits (at most 0x1fffe after the
  // first), with no data-dependent branch for the predictor to miss.
  partial = (partial & 0xffff) + (partial >> 16);
  partial = (partial & 0xffff) + (partial >> 16);
  return static_cast<std::uint16_t>(~partial & 0xffff);
}

std::uint16_t internet_checksum(BytesView data) {
  return checksum_finish(checksum_partial(data));
}

std::uint16_t checksum_incremental_update(std::uint16_t old_checksum,
                                          std::uint16_t old_word,
                                          std::uint16_t new_word) {
  // RFC 1624 eqn. 3: HC' = ~(~HC + ~m + m')
  std::uint32_t sum = static_cast<std::uint16_t>(~old_checksum);
  sum += static_cast<std::uint16_t>(~old_word);
  sum += new_word;
  while ((sum >> 16) != 0) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

std::uint16_t checksum_incremental_update32(std::uint16_t old_checksum,
                                            std::uint32_t old_value,
                                            std::uint32_t new_value) {
  std::uint16_t checksum = checksum_incremental_update(
      old_checksum, static_cast<std::uint16_t>(old_value >> 16),
      static_cast<std::uint16_t>(new_value >> 16));
  return checksum_incremental_update(
      checksum, static_cast<std::uint16_t>(old_value & 0xffff),
      static_cast<std::uint16_t>(new_value & 0xffff));
}

namespace {

std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) != 0 ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(BytesView data, std::uint32_t initial) {
  static const auto table = make_crc32_table();
  std::uint32_t c = initial;
  for (const auto byte : data) {
    c = table[(c ^ byte) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace flexsfp::net
