#include "ppe/registry.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "apps/nat.hpp"
#include "apps/register.hpp"

namespace flexsfp::ppe {
namespace {

TEST(AppRegistry, BuiltinAppsAllRegistered) {
  apps::register_builtin_apps();
  auto& registry = AppRegistry::instance();
  for (const char* name : {"nat", "acl", "vlan", "tunnel", "lb", "int",
                           "flowstats", "sampler", "ratelimit", "sanitizer",
                           "faultmon"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
}

TEST(AppRegistry, CreateWithEmptyConfigUsesDefaults) {
  apps::register_builtin_apps();
  const auto app = AppRegistry::instance().create("nat", {});
  ASSERT_NE(app, nullptr);
  EXPECT_EQ(app->name(), "nat");
}

TEST(AppRegistry, CreateFromSerializedConfigRoundTrips) {
  apps::register_builtin_apps();
  apps::NatConfig config;
  config.direction = apps::NatDirection::destination;
  config.miss_action = apps::NatMissAction::drop;
  config.table_capacity = 1024;
  const auto bytes = config.serialize();
  const auto app = AppRegistry::instance().create("nat", bytes);
  ASSERT_NE(app, nullptr);
  auto* nat = dynamic_cast<apps::StaticNat*>(app.get());
  ASSERT_NE(nat, nullptr);
  EXPECT_EQ(nat->config().direction, apps::NatDirection::destination);
  EXPECT_EQ(nat->config().miss_action, apps::NatMissAction::drop);
  EXPECT_EQ(nat->config().table_capacity, 1024u);
}

TEST(AppRegistry, UnknownNameReturnsNull) {
  EXPECT_EQ(AppRegistry::instance().create("no-such-app", {}), nullptr);
}

TEST(AppRegistry, MalformedConfigReturnsNull) {
  apps::register_builtin_apps();
  const net::Bytes garbage{0xff, 0xff};  // direction byte 0xff is invalid
  EXPECT_EQ(AppRegistry::instance().create("nat", garbage), nullptr);
}

// The 15 built-ins, in the registry's (sorted) order.
const std::vector<std::string> kBuiltins = {
    "acl", "bpf", "faultmon", "flowstats", "int", "ipv6filter", "lb",
    "lwaftr", "lwb4", "nat", "ratelimit", "sampler", "sanitizer",
    "tunnel", "vlan"};

TEST(AppRegistry, NamesEnumerates) {
  apps::register_builtin_apps();
  EXPECT_EQ(AppRegistry::instance().names(), kBuiltins);
}

TEST(AppRegistry, EveryBuiltinRoundTripsItsConfig) {
  apps::register_builtin_apps();
  const auto& registry = AppRegistry::instance();
  ASSERT_EQ(registry.names(), kBuiltins);
  for (const auto& name : kBuiltins) {
    const auto app = registry.create(name, {});
    ASSERT_NE(app, nullptr) << name;
    // Golden reboot looks an app up by the name its bitstream carries.
    EXPECT_EQ(app->name(), name);
    const net::Bytes config = app->serialize_config();
    const auto rebuilt = registry.create(name, config);
    ASSERT_NE(rebuilt, nullptr) << name;
    EXPECT_EQ(rebuilt->serialize_config(), config) << name;
  }
}

TEST(AppRegistryParallel, BuiltinsRegisterOnceFromManyThreads) {
  std::vector<PpeAppPtr> created(4);
  std::vector<std::thread> threads;
  for (auto& app : created) {
    threads.emplace_back([&app] {
      apps::register_builtin_apps();
      app = AppRegistry::instance().create("nat", {});
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& app : created) EXPECT_NE(app, nullptr);
}

TEST(AppRegistry, ReRegistrationReplaces) {
  AppRegistry registry;  // a private registry: the stub never leaks
  registry.register_app("test-stub", [](net::BytesView) -> PpeAppPtr {
    return nullptr;
  });
  EXPECT_TRUE(registry.contains("test-stub"));
  int calls = 0;
  registry.register_app("test-stub",
                        [&calls](net::BytesView) -> PpeAppPtr {
                          ++calls;
                          return nullptr;
                        });
  (void)registry.create("test-stub", {});
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace flexsfp::ppe
