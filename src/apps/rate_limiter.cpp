#include "apps/rate_limiter.hpp"

#include <algorithm>

#include "hw/resource_model.hpp"

namespace flexsfp::apps {

net::Bytes RateLimiterConfig::serialize() const {
  net::Bytes out(20);
  net::write_be32(out, 0, max_subscribers);
  net::write_be64(out, 4, default_spec.rate_bps);
  net::write_be64(out, 12, default_spec.burst_bytes);
  return out;
}

std::optional<RateLimiterConfig> RateLimiterConfig::parse(net::BytesView data) {
  if (data.size() < 20) return std::nullopt;
  RateLimiterConfig config;
  config.max_subscribers = net::read_be32(data, 0);
  config.default_spec.rate_bps = net::read_be64(data, 4);
  config.default_spec.burst_bytes = net::read_be64(data, 12);
  if (config.max_subscribers == 0) return std::nullopt;
  return config;
}

RateLimiter::RateLimiter(RateLimiterConfig config)
    : config_(config),
      subscribers_("subscribers", config.max_subscribers),
      buckets_(config.max_subscribers + 1),  // slot 0 = default bucket
      stats_("ratelimit_stats", 3) {
  buckets_[0].spec = config_.default_spec;
  buckets_[0].tokens = double(config_.default_spec.burst_bytes);
  free_slots_.reserve(config_.max_subscribers);
  for (std::size_t i = config_.max_subscribers; i > 0; --i) {
    free_slots_.push_back(i);
  }
}

bool RateLimiter::consume(Bucket& bucket, std::int64_t now_ps,
                          std::size_t bytes) {
  const double elapsed_s =
      double(std::max<std::int64_t>(now_ps - bucket.last_refill_ps, 0)) *
      1e-12;
  bucket.tokens = std::min(
      bucket.tokens + elapsed_s * double(bucket.spec.rate_bps) / 8.0,
      double(bucket.spec.burst_bytes));
  bucket.last_refill_ps = now_ps;
  if (bucket.tokens >= double(bytes)) {
    bucket.tokens -= double(bytes);
    return true;
  }
  return false;
}

ppe::Verdict RateLimiter::process(ppe::PacketContext& ctx) {
  const auto& parsed = ctx.parsed();
  if (!parsed.outer.ipv4) return ppe::Verdict::forward;

  const auto slot = subscribers_.lookup(parsed.outer.ipv4->src);
  if (!slot) {
    if (config_.default_spec.rate_bps == 0) {
      stats_.add(2, ctx.packet().size());
      return ppe::Verdict::forward;  // unmatched traffic unlimited
    }
    if (consume(buckets_[0], ctx.packet().ingress_time_ps(),
                ctx.packet().size())) {
      stats_.add(0, ctx.packet().size());
      return ppe::Verdict::forward;
    }
    stats_.add(1, ctx.packet().size());
    return ppe::Verdict::drop;
  }

  Bucket& bucket = buckets_[static_cast<std::size_t>(*slot)];
  if (consume(bucket, ctx.packet().ingress_time_ps(), ctx.packet().size())) {
    stats_.add(0, ctx.packet().size());
    return ppe::Verdict::forward;
  }
  stats_.add(1, ctx.packet().size());
  return ppe::Verdict::drop;
}

bool RateLimiter::add_subscriber(net::Ipv4Prefix prefix, TokenBucketSpec spec) {
  if (free_slots_.empty()) return false;
  const std::size_t slot = free_slots_.back();
  if (!subscribers_.insert(prefix, slot)) return false;
  free_slots_.pop_back();
  buckets_[slot].spec = spec;
  buckets_[slot].tokens = double(spec.burst_bytes);
  buckets_[slot].last_refill_ps = 0;
  return true;
}

bool RateLimiter::remove_subscriber(net::Ipv4Prefix prefix) {
  // Exact-match, not LPM: with nested prefixes (10.0.0.0/8 and 10.0.0.0/24)
  // an LPM walk on prefix.address() resolves to the longest entry, freeing
  // the wrong bucket slot and aliasing two subscribers onto one bucket.
  const auto slot = subscribers_.lookup_exact(prefix);
  if (!slot) return false;
  if (!subscribers_.erase(prefix)) return false;
  // Reset the freed bucket so the next subscriber assigned this slot does
  // not inherit stale tokens or the old spec.
  buckets_[static_cast<std::size_t>(*slot)] = Bucket{};
  free_slots_.push_back(static_cast<std::size_t>(*slot));
  return true;
}

hw::ResourceUsage RateLimiter::resource_usage(
    const hw::DatapathConfig& datapath) const {
  using RM = hw::ResourceModel;
  const std::uint32_t w = datapath.width_bits;
  hw::ResourceUsage usage;
  usage += RM::parser(34, w);
  usage += RM::lpm_table(config_.max_subscribers);
  usage += RM::token_bucket_bank(config_.max_subscribers + 1);
  usage += RM::deparser(w);
  usage += RM::csr_block(12);
  usage += RM::stream_fifo(128, 72);
  usage += RM::stream_fifo(128, 72);
  usage += RM::control_fsm(8, w);
  return usage;
}

std::vector<ppe::CounterSnapshot> RateLimiter::counters() const {
  return stats_.snapshot();
}

ppe::StageProfile RateLimiter::profile() const {
  using ppe::HeaderKind;
  ppe::StageProfile profile;
  profile.stage = name();
  profile.reads = ppe::header_set({HeaderKind::ethernet, HeaderKind::ipv4});
  profile.tables.push_back(ppe::TableProfile{
      .name = subscribers_.name(),
      .kind = ppe::TableKind::lpm,
      .capacity = subscribers_.capacity(),
      .key_bits = 32,
      .value_bits = 32,
      .key_sources = ppe::header_bit(HeaderKind::ipv4)});
  // LPM walk + token-bucket read-modify-write.
  profile.match_action_cycles = 2;
  profile.counter_banks.push_back({"ratelimit_stats", stats_.size(), 2});
  profile.pipeline_depth_cycles = pipeline_latency_cycles();
  return profile;
}

}  // namespace flexsfp::apps
