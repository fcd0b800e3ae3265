#include "fabric/traffic_gen.hpp"

#include <algorithm>
#include <array>

#include "net/headers.hpp"

namespace flexsfp::fabric {

namespace {
// IMIX: 7 x 64 B, 4 x 594 B, 1 x 1518 B.
constexpr std::array<std::size_t, 12> imix_pattern = {
    64, 64, 64, 594, 64, 594, 64, 1518, 64, 594, 64, 594};
}  // namespace

TrafficGen::TrafficGen(sim::Simulation& sim, TrafficSpec spec,
                       sim::PacketHandler& output)
    : sim_(sim),
      spec_(spec),
      output_(output),
      rng_(spec.seed),
      flow_dist_(std::max<std::size_t>(spec.flow_count, 1), spec.zipf_skew),
      wire_time_(spec.rate),
      name_(sim.metrics().unique_name("gen")),
      meter_(sim.metrics(), "gen.emitted", {{"gen", name_}}) {
  flight_stage_ = sim_.flight().register_stage(name_);
  prebuild_templates();
}

void TrafficGen::prebuild_templates() {
  switch (spec_.sizes) {
    case SizeDistribution::fixed:
      template_sizes_ = {spec_.fixed_size};
      break;
    case SizeDistribution::imix:
      template_sizes_ = {64, 594, 1518};  // the distinct IMIX frame sizes
      break;
    case SizeDistribution::uniform:
      // A template per (flow, size) pair — far too many distinct frames.
      return;
  }
  std::size_t per_rank_bytes = 0;
  for (const std::size_t size : template_sizes_) {
    per_rank_bytes += std::max<std::size_t>(size, 60);
  }
  const std::size_t budget_ranks =
      per_rank_bytes > 0 ? template_budget_bytes / per_rank_bytes : 0;
  template_ranks_ = std::min(
      {std::max<std::size_t>(spec_.flow_count, 1), budget_ranks,
       kMaxTemplateRanks});
  templates_.resize(template_ranks_ * template_sizes_.size());
  for (std::size_t rank = 1; rank <= template_ranks_; ++rank) {
    const net::FiveTuple tuple = flow_tuple(rank);
    for (std::size_t si = 0; si < template_sizes_.size(); ++si) {
      build_frame(template_sizes_[si], tuple,
                  templates_[(rank - 1) * template_sizes_.size() + si]);
    }
  }
}

net::FiveTuple TrafficGen::flow_tuple(std::size_t rank) const {
  // Derive a stable pseudo-random 5-tuple from the flow rank.
  const std::uint64_t h = net::fnv1a_u64(rank * 2654435761ull + spec_.seed);
  net::FiveTuple tuple;
  tuple.src = net::Ipv4Address{
      spec_.src_base.value() + static_cast<std::uint32_t>(rank & 0xffff)};
  tuple.dst = net::Ipv4Address{
      spec_.dst_base.value() +
      static_cast<std::uint32_t>((h >> 16) & 0xff)};
  tuple.src_port = static_cast<std::uint16_t>(1024 + (h & 0x7fff));
  tuple.dst_port = static_cast<std::uint16_t>((h >> 32) % 2 == 0 ? 80 : 443);
  const bool tcp =
      (double((h >> 40) & 0xff) / 255.0) < spec_.tcp_fraction;
  tuple.protocol = static_cast<std::uint8_t>(tcp ? net::IpProto::tcp
                                                 : net::IpProto::udp);
  return tuple;
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

void TrafficGen::build_frame(std::size_t frame_size,
                             const net::FiveTuple& tuple, net::Bytes& out) {
  builder_.reset();
  builder_.ethernet(spec_.dst_mac, spec_.src_mac);
  const auto proto = static_cast<net::IpProto>(tuple.protocol);
  builder_.ipv4(tuple.src, tuple.dst, proto);
  if (proto == net::IpProto::tcp) {
    builder_.tcp(tuple.src_port, tuple.dst_port);
  } else {
    builder_.udp(tuple.src_port, tuple.dst_port);
  }
  // Fill to the chosen frame size (headers included).
  const std::size_t header_bytes =
      net::EthernetHeader::size() + net::Ipv4Header::min_size() +
      (proto == net::IpProto::tcp ? net::TcpHeader::min_size()
                                  : net::UdpHeader::size());
  builder_.payload_size(frame_size > header_bytes ? frame_size - header_bytes
                                                  : 0);
  builder_.min_frame_size(std::max<std::size_t>(frame_size, 60));
  builder_.build_into(out);
}

const net::Bytes* TrafficGen::frame_template(std::size_t rank,
                                             std::size_t frame_size) const {
  if (rank == 0 || rank > template_ranks_) return nullptr;  // incl. uniform
  for (std::size_t si = 0; si < template_sizes_.size(); ++si) {
    if (template_sizes_[si] == frame_size) {
      return &templates_[(rank - 1) * template_sizes_.size() + si];
    }
  }
  return nullptr;
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

  net::PacketPtr packet = sim_.packet_pool().make();
  if (const net::Bytes* tmpl = frame_template(rank, frame_size)) {
    packet->data() = *tmpl;  // copy-assign reuses the pooled capacity
  } else {
    // Uncovered (uniform sizes or rank beyond the budget horizon): derive
    // the 5-tuple and assemble the frame the slow way.
    build_frame(frame_size, flow_tuple(rank), packet->data());
  }
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
