// Per-subscriber token-bucket rate limiting (§2.1: "per-subscriber policies
// such as ... basic rate-limiting must be enforced upstream" — FlexSFP
// enforces them at the port instead).
//
// Subscribers are identified by source prefix; each maps to a token bucket
// refilled from the packet timestamps (the datapath's free-running clock),
// so the limiter needs no timer interrupts.
#pragma once

#include <cstdint>

#include "net/addresses.hpp"
#include "ppe/app.hpp"
#include "ppe/counters.hpp"
#include "ppe/tables.hpp"

namespace flexsfp::apps {

struct TokenBucketSpec {
  std::uint64_t rate_bps = 100'000'000;  // sustained rate
  std::uint64_t burst_bytes = 64 * 1024;
};

struct RateLimiterConfig {
  std::uint32_t max_subscribers = 1024;
  /// Applied to traffic that matches no subscriber entry; a zero rate here
  /// means unmatched traffic is unlimited.
  TokenBucketSpec default_spec{0, 0};

  [[nodiscard]] net::Bytes serialize() const;
  [[nodiscard]] static std::optional<RateLimiterConfig> parse(
      net::BytesView data);
};

class RateLimiter final : public ppe::PpeApp {
 public:
  explicit RateLimiter(RateLimiterConfig config = {});

  [[nodiscard]] std::string name() const override { return "ratelimit"; }
  [[nodiscard]] ppe::Verdict process(ppe::PacketContext& ctx) override;
  [[nodiscard]] hw::ResourceUsage resource_usage(
      const hw::DatapathConfig& datapath) const override;
  [[nodiscard]] net::Bytes serialize_config() const override {
    return config_.serialize();
  }
  [[nodiscard]] ppe::StageProfile profile() const override;

  /// Register a subscriber prefix with its bucket; false when full.
  bool add_subscriber(net::Ipv4Prefix prefix, TokenBucketSpec spec);
  bool remove_subscriber(net::Ipv4Prefix prefix);

  [[nodiscard]] std::uint64_t policed() const { return stats_.packets(1); }
  [[nodiscard]] std::vector<ppe::CounterSnapshot> counters() const override;

 private:
  struct Bucket {
    TokenBucketSpec spec;
    double tokens = 0;
    std::int64_t last_refill_ps = 0;
  };

  /// Refill from elapsed time, then try to spend `bytes`.
  [[nodiscard]] static bool consume(Bucket& bucket, std::int64_t now_ps,
                                    std::size_t bytes);

  RateLimiterConfig config_;
  ppe::LpmTable subscribers_;   // prefix -> bucket slot
  std::vector<Bucket> buckets_;
  std::vector<std::size_t> free_slots_;
  ppe::CounterBank stats_;  // 0 conform, 1 police-drop, 2 unmatched
};

}  // namespace flexsfp::apps
