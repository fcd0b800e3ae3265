#include "net/pcap.hpp"

#include <array>
#include <stdexcept>

namespace flexsfp::net {

namespace {

constexpr std::uint32_t pcap_magic = 0xa1b2c3d4;
constexpr std::uint32_t linktype_ethernet = 1;
/// libpcap's MAXIMUM_SNAPLEN: no record of a sane capture is longer.
constexpr std::uint32_t max_snaplen = 262'144;

void put_le32(std::ofstream& out, std::uint32_t v) {
  std::array<char, 4> b{static_cast<char>(v & 0xff),
                        static_cast<char>((v >> 8) & 0xff),
                        static_cast<char>((v >> 16) & 0xff),
                        static_cast<char>((v >> 24) & 0xff)};
  out.write(b.data(), b.size());
}

void put_le16(std::ofstream& out, std::uint16_t v) {
  std::array<char, 2> b{static_cast<char>(v & 0xff),
                        static_cast<char>((v >> 8) & 0xff)};
  out.write(b.data(), b.size());
}

std::optional<std::uint32_t> get_le32(std::ifstream& in) {
  std::array<unsigned char, 4> b{};
  in.read(reinterpret_cast<char*>(b.data()), b.size());
  if (!in) return std::nullopt;
  return std::uint32_t{b[0]} | (std::uint32_t{b[1]} << 8) |
         (std::uint32_t{b[2]} << 16) | (std::uint32_t{b[3]} << 24);
}

}  // namespace

PcapWriter::PcapWriter(const std::string& path)
    : out_(path, std::ios::binary) {
  if (!out_) throw std::runtime_error("PcapWriter: cannot open " + path);
  put_le32(out_, pcap_magic);
  put_le16(out_, 2);   // version major
  put_le16(out_, 4);   // version minor
  put_le32(out_, 0);   // thiszone
  put_le32(out_, 0);   // sigfigs
  put_le32(out_, 65535);  // snaplen
  put_le32(out_, linktype_ethernet);
}

void PcapWriter::write(const PcapRecord& record) {
  write(record.data, record.timestamp_us);
}

void PcapWriter::write(BytesView frame, std::int64_t timestamp_us) {
  put_le32(out_, static_cast<std::uint32_t>(timestamp_us / 1000000));
  put_le32(out_, static_cast<std::uint32_t>(timestamp_us % 1000000));
  put_le32(out_, static_cast<std::uint32_t>(frame.size()));
  put_le32(out_, static_cast<std::uint32_t>(frame.size()));
  out_.write(reinterpret_cast<const char*>(frame.data()),
             static_cast<std::streamsize>(frame.size()));
  ++count_;
}

std::optional<std::vector<PcapRecord>> read_pcap(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  const auto magic = get_le32(in);
  if (!magic || *magic != pcap_magic) return std::nullopt;
  // Skip version/zone/sigfigs, read snaplen, check linktype.
  std::array<char, 12> skip{};
  in.read(skip.data(), skip.size());
  const std::uint32_t snaplen = get_le32(in).value_or(0);
  const auto linktype = get_le32(in);
  if (!linktype || *linktype != linktype_ethernet) return std::nullopt;

  std::vector<PcapRecord> records;
  while (true) {
    const auto ts_sec = get_le32(in);
    if (!ts_sec) break;  // clean EOF
    const auto ts_usec = get_le32(in);
    const auto caplen = get_le32(in);
    const auto origlen = get_le32(in);
    if (!ts_usec || !caplen || !origlen) return std::nullopt;  // truncated
    // The length is untrusted: check it before sizing a buffer by it.
    if (*caplen > snaplen || *caplen > max_snaplen) return std::nullopt;
    PcapRecord record;
    record.timestamp_us =
        std::int64_t{*ts_sec} * 1000000 + std::int64_t{*ts_usec};
    record.data.resize(*caplen);
    in.read(reinterpret_cast<char*>(record.data.data()), *caplen);
    if (!in) return std::nullopt;
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace flexsfp::net
