// The central line-rate property behind §5.1 and Figure 1: for ANY datapath
// geometry, the measured loss through the module is zero exactly when the
// analytic capacity inequality says the bus can absorb the offered packet
// rate — the simulator and the arithmetic must agree.
#include <gtest/gtest.h>

#include "apps/nat.hpp"
#include "fabric/testbed.hpp"

namespace flexsfp {
namespace {

using namespace sim;  // time literals

struct LineRateCase {
  std::uint32_t width_bits;
  double clock_mhz;
  std::size_t frame_size;
  double offered_gbps;
  bool bidirectional;
};

class LineRateProperty : public ::testing::TestWithParam<LineRateCase> {};

TEST_P(LineRateProperty, LossMatchesCapacityArithmetic) {
  const auto& param = GetParam();

  fabric::TestbedConfig config;
  config.module.shell.kind = param.bidirectional
                                 ? sfp::ShellKind::two_way_core
                                 : sfp::ShellKind::one_way_filter;
  config.module.shell.datapath =
      hw::DatapathConfig{param.width_bits, hw::ClockDomain::mhz(param.clock_mhz)};
  fabric::TrafficSpec spec;
  spec.rate = DataRate::gbps(param.offered_gbps);
  spec.fixed_size = param.frame_size;
  spec.duration = 1_ms;
  config.edge_traffic = spec;
  if (param.bidirectional) {
    fabric::TrafficSpec rx = spec;
    rx.seed = 99;
    // Independent links are never phase-locked: offset the reverse
    // direction by half an inter-arrival so synchronized-arrival tie
    // breaking does not starve one port at the shared drop-tail FIFO.
    rx.start = spec.rate.serialization_time(param.frame_size + 24) / 2;
    config.optical_traffic = rx;
  }

  fabric::ModuleTestbed testbed(std::move(config),
                                std::make_unique<apps::StaticNat>());
  const auto result = testbed.run();
  const double loss = param.bidirectional
                          ? (result.edge_to_optical.loss_rate +
                             result.optical_to_edge.loss_rate) /
                                2.0
                          : result.edge_to_optical.loss_rate;

  // The analytic predicate: the aggregated offered rate fits when the
  // per-packet beat budget fits into the per-packet wire time.
  const double directions = param.bidirectional ? 2.0 : 1.0;
  const hw::DatapathConfig dp = {param.width_bits,
                                 hw::ClockDomain::mhz(param.clock_mhz)};
  const double wire_time_s =
      double(param.frame_size + 24) * 8.0 / (param.offered_gbps * 1e9);
  const double pps = directions / wire_time_s;
  const double cycles_per_s =
      pps * double(dp.beats_for(param.frame_size));
  const bool fits = cycles_per_s <= double(dp.clock.hz()) * 1.0001;

  if (fits) {
    EXPECT_EQ(result.ledger.queue_drops, 0u)
        << "width " << param.width_bits << " clock " << param.clock_mhz;
    EXPECT_LT(loss, 1e-9);
  } else {
    EXPECT_GT(loss, 0.005)
        << "width " << param.width_bits << " clock " << param.clock_mhz;
    // And the measured loss approximates the capacity deficit. The engine
    // FIFO fills at start and drains after the run, so up to one queue's
    // worth of packets per run escapes the deficit accounting.
    const double deficit = 1.0 - double(dp.clock.hz()) / cycles_per_s;
    const double sent = pps * 1e-3;  // packets over the 1 ms run
    const double queue_slack = 2.0 * 64.0 / sent;
    EXPECT_NEAR(loss, deficit, 0.05 + queue_slack);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LineRateProperty,
    ::testing::Values(
        // The paper's design point, uni- and bidirectional.
        LineRateCase{64, 156.25, 64, 10, false},
        LineRateCase{64, 156.25, 1518, 10, false},
        LineRateCase{64, 156.25, 64, 10, true},    // overload (Figure 1b)
        LineRateCase{64, 312.5, 64, 10, true},     // the 2x remedy
        LineRateCase{64, 156.25, 1518, 10, true},  // large frames overload too
        LineRateCase{64, 322.27, 1518, 10, true},
        // Narrow clocking: underprovisioned even unidirectionally.
        LineRateCase{64, 100.0, 64, 10, false},
        LineRateCase{64, 100.0, 512, 10, false},
        // Wider buses at lower clocks.
        LineRateCase{128, 100.0, 64, 10, false},
        LineRateCase{256, 50.0, 64, 10, false},
        LineRateCase{512, 25.0, 1518, 10, false},
        // Partial offered load on a slow engine.
        LineRateCase{64, 100.0, 64, 5, false},
        LineRateCase{64, 78.125, 64, 5, true}),
    [](const ::testing::TestParamInfo<LineRateCase>& info) {
      char name[80];
      std::snprintf(name, sizeof name, "w%u_c%d_f%zu_r%d_%s",
                    info.param.width_bits, int(info.param.clock_mhz),
                    info.param.frame_size, int(info.param.offered_gbps),
                    info.param.bidirectional ? "bidir" : "uni");
      return std::string(name);
    });

}  // namespace
}  // namespace flexsfp
