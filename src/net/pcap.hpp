// Minimal libpcap-format file I/O so example traces can be inspected with
// standard tooling (tcpdump/wireshark). Classic pcap format, LINKTYPE_ETHERNET,
// microsecond timestamps.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "net/bytes.hpp"

namespace flexsfp::net {

struct PcapRecord {
  std::int64_t timestamp_us = 0;
  Bytes data;
};

/// Streaming pcap writer; the header is emitted on construction.
class PcapWriter {
 public:
  /// Throws std::runtime_error if the file cannot be opened.
  explicit PcapWriter(const std::string& path);

  void write(const PcapRecord& record);
  void write(BytesView frame, std::int64_t timestamp_us);
  [[nodiscard]] std::size_t records_written() const { return count_; }

 private:
  std::ofstream out_;
  std::size_t count_ = 0;
};

/// Read every record of a classic pcap file; returns nullopt when the file
/// is missing, has a bad magic/linktype, is truncated, or holds a record
/// longer than the header's snaplen (or libpcap's 262,144-byte maximum).
[[nodiscard]] std::optional<std::vector<PcapRecord>> read_pcap(
    const std::string& path);

}  // namespace flexsfp::net
