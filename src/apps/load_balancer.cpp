#include "apps/load_balancer.hpp"

#include <algorithm>

#include "hw/resource_model.hpp"

namespace flexsfp::apps {

namespace {
constexpr std::size_t max_tracked_backends = 64;
}

net::Bytes LoadBalancerConfig::serialize() const {
  net::Bytes out(4);
  net::write_be32(out, 0, table_size);
  return out;
}

std::optional<LoadBalancerConfig> LoadBalancerConfig::parse(
    net::BytesView data) {
  if (data.size() < 4) return std::nullopt;
  LoadBalancerConfig config;
  config.table_size = net::read_be32(data, 0);
  if (config.table_size < 3) return std::nullopt;
  return config;
}

LoadBalancer::LoadBalancer(LoadBalancerConfig config)
    : config_(config),
      table_(config.table_size, -1),
      stats_("lb_stats", max_tracked_backends) {}

std::vector<std::size_t> LoadBalancer::active_backend_indices() const {
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (backends_[i].healthy) active.push_back(i);
  }
  return active;
}

void LoadBalancer::rebuild_table() {
  // Maglev population: backend i has a permutation of table slots driven by
  // (offset, skip) derived from hashes of its id; backends claim slots in
  // round-robin permutation order until the table is full.
  std::fill(table_.begin(), table_.end(), -1);
  const auto active = active_backend_indices();
  if (active.empty()) return;

  const std::size_t m = table_.size();
  struct Cursor {
    std::size_t offset;
    std::size_t skip;
    std::size_t next = 0;
    std::int32_t backend_index;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(active.size());
  for (const std::size_t index : active) {
    const std::uint32_t id = backends_[index].id;
    const std::uint64_t h1 = net::fnv1a_u64(id);
    const std::uint64_t h2 = net::murmur3_64(net::BytesView{
        reinterpret_cast<const std::uint8_t*>(&id), sizeof id});
    cursors.push_back(Cursor{.offset = h1 % m,
                             .skip = (h2 % (m - 1)) + 1,
                             .backend_index = static_cast<std::int32_t>(index)});
  }

  std::size_t filled = 0;
  while (filled < m) {
    for (auto& cursor : cursors) {
      // Walk this backend's permutation to its next unclaimed slot.
      std::size_t slot;
      do {
        slot = (cursor.offset + cursor.next * cursor.skip) % m;
        ++cursor.next;
      } while (table_[slot] >= 0);
      table_[slot] = cursor.backend_index;
      if (++filled == m) break;
    }
  }
}

void LoadBalancer::add_backend(Backend backend) {
  backends_.push_back(backend);
  rebuild_table();
}

bool LoadBalancer::remove_backend(std::uint32_t id) {
  const auto it =
      std::find_if(backends_.begin(), backends_.end(),
                   [id](const Backend& b) { return b.id == id; });
  if (it == backends_.end()) return false;
  backends_.erase(it);
  rebuild_table();
  return true;
}

bool LoadBalancer::set_backend_health(std::uint32_t id, bool healthy) {
  const auto it =
      std::find_if(backends_.begin(), backends_.end(),
                   [id](const Backend& b) { return b.id == id; });
  if (it == backends_.end()) return false;
  it->healthy = healthy;
  rebuild_table();
  return true;
}

std::optional<Backend> LoadBalancer::backend_for(
    const net::FiveTuple& tuple) const {
  if (backends_.empty()) return std::nullopt;
  // Hash the canonicalized tuple so both directions of a flow agree. A
  // strong hash over the canonical form avoids the bit-aliasing weakness of
  // the symmetric Toeplitz key (bits 16 positions apart cancel), which
  // would collapse correlated flow populations onto a few table slots.
  const std::uint64_t h = net::hash_tuple(tuple.canonical());
  const std::int32_t index = table_[h % table_.size()];
  if (index < 0 || index >= static_cast<std::int32_t>(backends_.size())) {
    return std::nullopt;
  }
  return backends_[static_cast<std::size_t>(index)];
}

ppe::Verdict LoadBalancer::process(ppe::PacketContext& ctx) {
  const auto& parsed = ctx.parsed();
  const auto tuple = parsed.five_tuple();
  if (!tuple) return ppe::Verdict::forward;  // non-IPv4 bypasses the LB

  const auto backend = backend_for(*tuple);
  if (!backend) return ppe::Verdict::forward;  // no pool: pass through

  // Steer by rewriting the destination MAC toward the chosen uplink.
  net::EthernetHeader eth = parsed.eth;
  eth.dst = backend->next_hop;
  eth.serialize_to(ctx.bytes(), 0);
  ctx.invalidate_parse();
  const auto slot = std::min<std::size_t>(backend->id, stats_.size() - 1);
  stats_.add(slot, ctx.packet().size());
  return ppe::Verdict::forward;
}

std::uint64_t LoadBalancer::packets_to(std::uint32_t backend_id) const {
  return stats_.packets(std::min<std::size_t>(backend_id, stats_.size() - 1));
}

hw::ResourceUsage LoadBalancer::resource_usage(
    const hw::DatapathConfig& datapath) const {
  using RM = hw::ResourceModel;
  const std::uint32_t w = datapath.width_bits;
  hw::ResourceUsage usage;
  usage += RM::parser(38, w);
  usage += RM::hash_unit(104);  // flow hash over the canonical 5-tuple
  // Lookup table: one 8-bit backend index per slot, LSRAM resident.
  usage.lsram_blocks += hw::lsram_blocks_for_bits(
      std::uint64_t{config_.table_size} * 8);
  usage += RM::field_edit_unit(1, w);  // MAC rewrite
  usage += RM::deparser(w);
  usage += RM::csr_block(16);
  usage += RM::stream_fifo(128, 72);
  usage += RM::stream_fifo(128, 72);
  usage += RM::control_fsm(8, w);
  usage += RM::counter_bank(max_tracked_backends * 2, 64);
  return usage;
}

std::vector<ppe::CounterSnapshot> LoadBalancer::counters() const {
  std::vector<ppe::CounterSnapshot> out;
  for (const auto& backend : backends_) {
    const auto slot =
        std::min<std::size_t>(backend.id, stats_.size() - 1);
    out.push_back(
        {"lb_stats", slot, stats_.packets(slot), stats_.bytes(slot)});
  }
  return out;
}

ppe::StageProfile LoadBalancer::profile() const {
  using ppe::HeaderKind;
  ppe::StageProfile profile;
  profile.stage = name();
  profile.reads = ppe::header_set(
      {HeaderKind::ethernet, HeaderKind::ipv4, HeaderKind::tcp,
       HeaderKind::udp});
  profile.writes = ppe::header_bit(HeaderKind::ethernet);  // next-hop MAC
  profile.tables.push_back(ppe::TableProfile{
      .name = "maglev",
      .kind = ppe::TableKind::exact_match,
      .capacity = config_.table_size,
      .key_bits = 64,  // pre-hashed canonical 5-tuple
      .value_bits = 8,
      .key_sources = ppe::header_set(
          {HeaderKind::ipv4, HeaderKind::tcp, HeaderKind::udp})});
  // Backend ids above the tracked range are clamped into the last slot.
  profile.counter_banks.push_back(
      {"lb_stats", stats_.size(), stats_.size() - 1});
  profile.pipeline_depth_cycles = pipeline_latency_cycles();
  return profile;
}

}  // namespace flexsfp::apps
