// Seeded-mutation sweep of LwAftr's byte-peek fast path. Every frame of the
// softwire shape zoo, with each header byte inverted and with seeded random
// overwrites of its first 96 bytes, must get the verdict, output bytes and
// lwaftr_stats counters of the parser-built reference — under every miss
// action, hairpin on and off. Mutations land exactly on the bytes the fast
// path classifies by (EtherType, version, IHL, fragment bits, protocol,
// next-header, tunnel destination, ports), so frames on both sides of every
// classifier test are covered.
#include <gtest/gtest.h>

#include "../apps/softwire_oracle.hpp"
#include "frame_mutations.hpp"

namespace flexsfp::apps {
namespace {

constexpr std::size_t kHeaderSpan = 96;

void expect_every_config_matches(const std::vector<oracle::Shape>& frames) {
  for (const LwAftrConfig& config : oracle::all_configs()) {
    SCOPED_TRACE(static_cast<int>(config.miss_action) * 2 +
                 (config.hairpin ? 1 : 0));
    LwAftr app(config);
    oracle::provision(app);
    EXPECT_EQ(oracle::expect_matches_reference(app, frames), 0u);
  }
}

TEST(SoftwireFastPathProperty, EveryHeaderByteInvertedMatchesParserReference) {
  std::vector<oracle::Shape> frames;
  for (const oracle::Shape& shape : oracle::shape_zoo()) {
    const auto inverted =
        net::mutations::every_byte_inverted(shape.frame, kHeaderSpan);
    for (std::size_t i = 0; i < inverted.size(); ++i) {
      frames.push_back({shape.label + "/inv" + std::to_string(i), inverted[i]});
    }
  }
  expect_every_config_matches(frames);
}

class SoftwireFastPathSeeded
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SoftwireFastPathSeeded, RandomHeaderMutationsMatchParserReference) {
  std::vector<oracle::Shape> frames;
  const auto zoo = oracle::shape_zoo();
  for (std::size_t z = 0; z < zoo.size(); ++z) {
    const auto mutated = net::mutations::seeded_mutations(
        zoo[z].frame, GetParam() * 1000 + z, 48, kHeaderSpan);
    for (std::size_t i = 0; i < mutated.size(); ++i) {
      frames.push_back({zoo[z].label + "/mut" + std::to_string(i), mutated[i]});
    }
  }
  expect_every_config_matches(frames);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoftwireFastPathSeeded,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace flexsfp::apps
