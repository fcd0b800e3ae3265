#include "fabric/traffic_gen.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "net/checksum.hpp"

namespace flexsfp::fabric {

namespace {
// IMIX: 7 x 64 B, 4 x 594 B, 1 x 1518 B.
constexpr std::array<std::size_t, 12> imix_pattern = {
    64, 64, 64, 594, 64, 594, 64, 1518, 64, 594, 64, 594};
constexpr std::size_t kL3 = net::EthernetHeader::size();
constexpr std::size_t kL4 = kL3 + net::Ipv4Header::min_size();
constexpr std::size_t kUdpHeaderBytes = kL4 + net::UdpHeader::size();
constexpr std::size_t kTcpHeaderBytes = kL4 + net::TcpHeader::min_size();

// Byte i is i & 0xff, PacketBuilder::payload_size's payload. A frame copies
// it from offset 256 - header bytes, so its payload starts at pattern 0.
constexpr auto kPattern = [] {
  std::array<std::uint8_t, 256 + TrafficGen::kMaxFrameBytes> pattern{};
  for (std::size_t i = 0; i < pattern.size(); ++i) pattern[i] = i & 0xff;
  return pattern;
}();

// kPatternSum[n]: the pattern's first n bytes summed as big-endian words.
constexpr auto kPatternSum = [] {
  std::array<std::uint32_t, 257> sum{};
  for (unsigned i = 0; i < 256; ++i) sum[i + 1] = sum[i] + (i % 2 ? i : i << 8);
  return sum;
}();

// Before anything registers: no inverted range, no wrapped total_length.
const TrafficSpec& buildable(const TrafficSpec& spec) {
  using enum SizeDistribution;
  const std::size_t largest = spec.sizes == uniform ? spec.max_size
                              : spec.sizes == fixed ? spec.fixed_size
                                                    : 1518;
  if (largest > TrafficGen::kMaxFrameBytes ||
      (spec.sizes == uniform && spec.min_size > spec.max_size)) {
    throw std::invalid_argument("TrafficGen: unbuildable frame sizes");
  }
  return spec;
}
}  // namespace

TrafficGen::TrafficGen(sim::Simulation& sim, TrafficSpec spec,
                       sim::PacketHandler& output)
    : sim_(sim),
      spec_(buildable(spec)),
      output_(output),
      rng_(spec.seed),
      flow_dist_(std::max<std::size_t>(spec.flow_count, 1), spec.zipf_skew),
      wire_time_(spec.rate),
      name_(sim.metrics().unique_name("gen")),
      meter_(sim.metrics(), "gen.emitted", {{"gen", name_}}),
      headers_(std::min(flow_dist_.n(), kMaxCachedRanks)),
      flight_stage_(sim.flight().register_stage(name_)) {}

net::FiveTuple TrafficGen::flow_tuple(std::size_t rank) const {
  // Derive a stable pseudo-random 5-tuple from the flow rank.
  const std::uint64_t h = net::fnv1a_u64(rank * 2654435761ull + spec_.seed);
  const bool tcp = (double((h >> 40) & 0xff) / 255.0) < spec_.tcp_fraction;
  return {net::Ipv4Address{spec_.src_base.value() +
                           static_cast<std::uint32_t>(rank & 0xffff)},
          net::Ipv4Address{spec_.dst_base.value() +
                           static_cast<std::uint32_t>((h >> 16) & 0xff)},
          static_cast<std::uint16_t>(1024 + (h & 0x7fff)),
          static_cast<std::uint16_t>((h >> 32) % 2 == 0 ? 80 : 443),
          static_cast<std::uint8_t>(tcp ? net::IpProto::tcp
                                        : net::IpProto::udp)};
}

TrafficGen::FlowHeader TrafficGen::make_header(std::size_t rank) const {
  const net::FiveTuple t = flow_tuple(rank);
  const bool tcp = t.protocol == static_cast<std::uint8_t>(net::IpProto::tcp);
  FlowHeader head{};
  head.length = tcp ? kTcpHeaderBytes : kUdpHeaderBytes;
  const net::BytesSpan out{head.bytes};
  net::EthernetHeader{spec_.dst_mac, spec_.src_mac, 0x0800}.serialize_to(out,
                                                                         0);
  net::Ipv4Header{.protocol = t.protocol, .src = t.src, .dst = t.dst}
      .serialize_to(out, kL3);
  if (tcp) {
    net::TcpHeader{.src_port = t.src_port, .dst_port = t.dst_port,
                   .flags = net::TcpHeader::flag_ack, .window = 0xffff}
        .serialize_to(out, kL4);
  } else {  // and the first payload bytes, up to 54
    net::UdpHeader{t.src_port, t.dst_port}.serialize_to(out, kL4);
    std::copy(kPattern.begin(), kPattern.begin() + 12, out.begin() + 42);
  }
  head.ip_sum = net::checksum_partial(out.subspan(kL3, kL4 - kL3));
  // The pseudo-header but its length: both addresses and the protocol.
  head.l4_sum = net::checksum_partial(
      out.subspan(kL4, head.length - kL4),
      net::checksum_partial(out.subspan(kL3 + 12, 8), t.protocol));
  return head;
}

std::size_t TrafficGen::next_size() {
  switch (spec_.sizes) {
    case SizeDistribution::fixed:
      return spec_.fixed_size;
    case SizeDistribution::imix:
      return imix_pattern[imix_cursor_++ % imix_pattern.size()];
    case SizeDistribution::uniform:
      return static_cast<std::size_t>(
          rng_.uniform(spec_.min_size, spec_.max_size));
  }
  return spec_.fixed_size;
}

sim::TimePs TrafficGen::gap_after(std::size_t frame_bytes) {
  const sim::TimePs wire_time = wire_time_(frame_bytes + 24);
  if (spec_.arrivals == ArrivalProcess::cbr) return wire_time;
  return static_cast<sim::TimePs>(rng_.exponential(double(wire_time)));
}

void TrafficGen::start() {
  sim_.schedule_at(spec_.start, [this]() { emit(); });
}

void TrafficGen::emit() {
  if (sim_.now() >= spec_.start + spec_.duration) return;

  const std::size_t frame_size = next_size();
  const std::size_t rank = flow_dist_.sample(rng_);
  FlowHeader spare{};  // for ranks beyond the cache
  FlowHeader& head = rank <= headers_.size() ? headers_[rank - 1] : spare;
  if (head.length == 0) head = make_header(rank);
  const std::size_t header = head.length;
  const std::size_t payload = frame_size > header ? frame_size - header : 0;
  // The pattern into the pooled capacity, then the flow's 54 bytes.
  net::PacketPtr packet = sim_.packet_pool().make();
  net::Bytes& frame = packet->data();
  const std::uint8_t* first = kPattern.data() + 256 - header;
  frame.assign(first, first + std::max<std::size_t>(header + payload, 60));
  std::memcpy(frame.data(), head.bytes.data(), head.bytes.size());
  frame.resize(header + payload);  // and back, zero-padded
  frame.resize(std::max<std::size_t>(header + payload, 60));
  const auto put16 = [out = frame.data()](std::size_t at, std::uint32_t v) {
    out[at] = static_cast<std::uint8_t>(v >> 8);  // at < 53 < frame size
    out[at + 1] = static_cast<std::uint8_t>(v);
  };
  const auto ip_length = static_cast<std::uint16_t>(header - kL3 + payload);
  const auto l4_length = static_cast<std::uint16_t>(header - kL4 + payload);
  put16(kL3 + 2, ip_length);
  put16(kL3 + 10, net::checksum_finish(head.ip_sum + ip_length));
  // `tcp` is 0 or 1 (no branch: it would miss on half the flows). UDP sums
  // its length twice; TCP has no length field, so that write hits the checksum.
  const std::size_t tcp = (header - kUdpHeaderBytes) / 12;
  put16(kL4 + 4 + 12 * tcp, l4_length);
  std::uint16_t checksum = net::checksum_finish(
      head.l4_sum + std::uint32_t(2 - tcp) * l4_length +
      std::uint32_t(payload >> 8) * kPatternSum[256] +
      kPatternSum[payload & 0xff]);
  if (checksum == 0 && tcp == 0) checksum = 0xffff;  // RFC 768: 0 is "none"
  put16(kL4 + 6 + 10 * tcp, checksum);
  packet->set_id(sim_.next_packet_id());
  packet->set_created_time_ps(sim_.now());
  meter_.record(packet->size());
  if (sim_.flight().sampled(packet->id())) {
    sim_.flight().record(packet->id(), flight_stage_, obs::HopKind::emit,
                         sim_.now(), 0, packet->size());
  }
  output_.handle_packet(std::move(packet));

  sim_.schedule_in(gap_after(frame_size), [this]() { emit(); });
}

Sink::Sink(sim::Simulation& sim, std::size_t retain_last)
    : sim_(sim),
      retain_(retain_last),
      name_(sim.metrics().unique_name("sink")),
      meter_(sim.metrics(), "sink.received", {{"sink", name_}}) {
  flight_stage_ = sim_.flight().register_stage(name_);
}

void Sink::handle_packet(net::PacketPtr packet) {
  const sim::TimePs latency = sim_.now() - packet->created_time_ps();
  meter_.record(packet->size());
  latency_.record(latency);
  if (sim_.flight().sampled(packet->id())) {
    sim_.flight().record(packet->id(), flight_stage_, obs::HopKind::deliver,
                         sim_.now(), 0, std::uint64_t(latency));
  }
  if (retained_.size() < retain_) retained_.push_back(std::move(packet));
}

void Sink::reset() {
  meter_.reset();
  latency_.reset();
  retained_.clear();
}

}  // namespace flexsfp::fabric
