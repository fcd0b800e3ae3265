#include "net/pcap.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "net/builder.hpp"

namespace flexsfp::net {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Pcap, WriteReadRoundTrip) {
  const std::string path = temp_path("flexsfp_test_roundtrip.pcap");
  const Bytes frame = PacketBuilder()
                          .ethernet(MacAddress::from_u64(2),
                                    MacAddress::from_u64(1))
                          .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
                                Ipv4Address::from_octets(10, 0, 0, 2),
                                IpProto::udp)
                          .udp(1, 2)
                          .payload_size(11)
                          .build();
  {
    PcapWriter writer(path);
    writer.write(frame, 1'000'123);
    writer.write(frame, 2'500'000);
    EXPECT_EQ(writer.records_written(), 2u);
  }
  const auto records = read_pcap(path);
  ASSERT_TRUE(records);
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].timestamp_us, 1'000'123);
  EXPECT_EQ((*records)[1].timestamp_us, 2'500'000);
  EXPECT_EQ((*records)[0].data, frame);
  std::remove(path.c_str());
}

TEST(Pcap, ReadMissingFileReturnsNullopt) {
  EXPECT_FALSE(read_pcap("/nonexistent/definitely_missing.pcap").has_value());
}

TEST(Pcap, ReadRejectsBadMagic) {
  const std::string path = temp_path("flexsfp_test_badmagic.pcap");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a pcap file at all, not even close";
  }
  EXPECT_FALSE(read_pcap(path).has_value());
  std::remove(path.c_str());
}

TEST(Pcap, EmptyCaptureReadsBack) {
  const std::string path = temp_path("flexsfp_test_empty.pcap");
  { PcapWriter writer(path); }
  const auto records = read_pcap(path);
  ASSERT_TRUE(records);
  EXPECT_TRUE(records->empty());
  std::remove(path.c_str());
}

// A classic pcap global header (snaplen 65,535, Ethernet) followed by one
// record header claiming `caplen` bytes and `body` bytes of actual payload.
void write_one_record(const std::string& path, std::uint32_t caplen,
                      std::size_t body) {
  std::ofstream out(path, std::ios::binary);
  const auto le32 = [&out](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.put(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  le32(0xa1b2c3d4);
  le32(0x00040002);  // version 2.4
  le32(0);           // thiszone
  le32(0);           // sigfigs
  le32(65535);       // snaplen
  le32(1);           // LINKTYPE_ETHERNET
  le32(1);           // ts_sec
  le32(0);           // ts_usec
  le32(caplen);
  le32(caplen);      // origlen
  out << std::string(body, '\0');
}

TEST(Pcap, RejectsRecordLongerThanSnaplen) {
  const std::string path = temp_path("flexsfp_test_oversize.pcap");
  // A whole 70,000-byte record under a 65,535-byte snaplen.
  write_one_record(path, 70'000, 70'000);
  EXPECT_FALSE(read_pcap(path).has_value());
  // A header claiming ~4 GiB with no body: rejected before any allocation.
  write_one_record(path, 0xFFFFFFF0u, 0);
  EXPECT_FALSE(read_pcap(path).has_value());
  std::remove(path.c_str());
}

TEST(Pcap, WriterThrowsOnBadPath) {
  EXPECT_THROW(PcapWriter("/nonexistent_dir/x/y.pcap"), std::runtime_error);
}

}  // namespace
}  // namespace flexsfp::net
