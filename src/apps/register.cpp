#include "apps/register.hpp"

#include <memory>

#include "apps/acl.hpp"
#include "apps/bpf_filter.hpp"
#include "apps/fault_monitor.hpp"
#include "apps/ipv6_filter.hpp"
#include "apps/load_balancer.hpp"
#include "apps/nat.hpp"
#include "apps/rate_limiter.hpp"
#include "apps/sanitizer.hpp"
#include "apps/softwire.hpp"
#include "apps/telemetry.hpp"
#include "apps/tunnel.hpp"
#include "apps/vlan.hpp"
#include "ppe/registry.hpp"

namespace flexsfp::apps {

namespace {

/// The factory every built-in shares: empty bytes give the default app, a
/// config `Config::parse` rejects gives nullptr.
template <typename App, typename Config>
ppe::PpeAppPtr from_config(net::BytesView config) {
  if (config.empty()) return std::make_unique<App>();
  auto parsed = Config::parse(config);
  if (!parsed) return nullptr;
  return std::make_unique<App>(std::move(*parsed));
}

struct Builtin {
  const char* name;  // the name a bitstream carries; equals App::name()
  ppe::PpeAppPtr (*factory)(net::BytesView config);
};

// One row per built-in app.
constexpr Builtin kBuiltins[] = {
    {"acl", from_config<AclFirewall, AclConfig>},
    {"bpf", from_config<BpfFilter, BpfProgram>},
    {"faultmon", from_config<FaultMonitor, FaultMonitorConfig>},
    {"flowstats", from_config<FlowStats, FlowStatsConfig>},
    {"int", from_config<IntStamper, IntStamperConfig>},
    {"ipv6filter", from_config<Ipv6Filter, Ipv6FilterConfig>},
    {"lb", from_config<LoadBalancer, LoadBalancerConfig>},
    {"lwaftr", from_config<LwAftr, LwAftrConfig>},
    {"lwb4", from_config<LwB4, LwB4Config>},
    {"nat", from_config<StaticNat, NatConfig>},
    {"ratelimit", from_config<RateLimiter, RateLimiterConfig>},
    {"sampler", from_config<Sampler, SamplerConfig>},
    {"sanitizer", from_config<Sanitizer, SanitizerConfig>},
    {"tunnel", from_config<TunnelApp, TunnelConfig>},
    {"vlan", from_config<VlanTagger, VlanConfig>},
};

}  // namespace

void register_builtin_apps() {
  // A function-local static is initialised exactly once even when several
  // threads build modules at the same time; later callers wait for it.
  [[maybe_unused]] static const bool filled = [] {
    auto& registry = ppe::AppRegistry::instance();
    for (const auto& [name, factory] : kBuiltins) {
      // A name registered before the first call (a test stub) is kept.
      if (!registry.contains(name)) registry.register_app(name, factory);
    }
    return true;
  }();
}

}  // namespace flexsfp::apps
