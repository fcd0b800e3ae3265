// Binding-table churn at scale, two angles:
//
//   * a million control-plane operations against one LwAftr — insert,
//     expire, re-add over a 1M-entry table geometry, with spot-check reads
//     and exact occupancy accounting after every phase, and
//   * lease churn riding on live faulted traffic through a ModuleTestbed:
//     the zero-black-hole ledger must close (every emitted packet delivered
//     or attributed to a named drop point) and the PacketPool must stop
//     allocating once warm — the steady state reuses pooled buffers only.
#include <gtest/gtest.h>

#include "app_test_util.hpp"
#include "apps/softwire.hpp"
#include "fabric/testbed.hpp"
#include "net/builder.hpp"
#include "sim/random.hpp"

namespace flexsfp::apps {
namespace {

using testing::ip;
using testing::mac;

constexpr PsidParams kParams{6, 6};
constexpr std::uint16_t kPsidsPerAddr = 64;

net::Ipv6Address aftr() { return *net::Ipv6Address::parse("2001:db8:ffff::1"); }
net::Ipv6Address b4(std::uint64_t low) {
  return net::Ipv6Address::from_u64_pair(0x20010db8'00000000ull, low);
}
net::Ipv4Address lease_v4(std::uint32_t i) {
  return net::Ipv4Address{ip(100, 64, 0, 0).value() + i / kPsidsPerAddr};
}
std::uint16_t lease_psid(std::uint32_t i) { return i % kPsidsPerAddr; }

TEST(SoftwireChurn, MillionOperationInsertExpireReaddCycles) {
  LwAftrConfig config;
  config.aftr_addr = aftr();
  config.icmp_src = ip(192, 0, 2, 1);
  config.binding_capacity = 1u << 20;  // the million-lease geometry
  LwAftr app(config);

  constexpr std::uint32_t kLeases = 1u << 18;  // 262144 live per cycle
  std::uint64_t operations = 0;
  sim::Rng rng(7);

  // Phase 0: cold fill.
  for (std::uint32_t i = 0; i < kLeases; ++i) {
    ASSERT_TRUE(app.add_binding(lease_v4(i), lease_psid(i), kParams, b4(i)))
        << "lease " << i;
  }
  operations += kLeases;
  ASSERT_EQ(app.binding_count(), kLeases);

  // Cycles of expire-one-in-four / re-add until a million operations have
  // hit the table. Slot recycling means occupancy returns to exactly
  // kLeases after every cycle — no leak, no stuck tombstones.
  while (operations < 1'000'000) {
    for (std::uint32_t i = 0; i < kLeases; i += 4) {
      ASSERT_TRUE(app.remove_binding(lease_v4(i), lease_psid(i)));
    }
    ASSERT_EQ(app.binding_count(), kLeases - kLeases / 4);
    for (std::uint32_t i = 0; i < kLeases; i += 4) {
      // Re-add with a rotated B4: the refreshed lease must win.
      ASSERT_TRUE(
          app.add_binding(lease_v4(i), lease_psid(i), kParams, b4(i + 1)));
    }
    operations += 2 * (kLeases / 4);
    ASSERT_EQ(app.binding_count(), kLeases);
  }

  // Spot-check reads against the expected generation: multiples of 4 were
  // rotated to b4(i + 1) by the last cycle, everything else is original.
  for (int check = 0; check < 1000; ++check) {
    const auto i = std::uint32_t(rng.uniform(0, kLeases - 1));
    const auto expect = i % 4 == 0 ? b4(i + 1) : b4(i);
    ASSERT_EQ(app.b4_for(lease_v4(i), lease_psid(i)), expect) << "lease " << i;
  }

  // The datapath still works at full occupancy: the highest lease encaps.
  auto packet = testing::udp_packet(
      ip(192, 0, 2, 50), lease_v4(kLeases - 1), 9999,
      port_for_index(kParams, lease_psid(kLeases - 1), 0));
  EXPECT_EQ(testing::run(app, packet), ppe::Verdict::forward);
  EXPECT_EQ(app.stat_packets(LwAftr::stat_encapsulated), 1u);
}

TEST(SoftwireChurn, PsidMapRefcountSurvivesInterleavedChurn) {
  LwAftrConfig config;
  config.aftr_addr = aftr();
  config.binding_capacity = 4096;
  LwAftr app(config);

  // 64 leases sharing one address: the psid_map entry must persist until
  // the very last lease leaves, then vanish so a new layout is admissible.
  for (std::uint16_t psid = 0; psid < 64; ++psid) {
    ASSERT_TRUE(app.add_binding(ip(100, 64, 9, 9), psid, kParams, b4(psid)));
  }
  for (std::uint16_t psid = 0; psid < 63; ++psid) {
    ASSERT_TRUE(app.remove_binding(ip(100, 64, 9, 9), psid));
    ASSERT_EQ(app.params_for(ip(100, 64, 9, 9)), kParams) << "psid " << psid;
  }
  ASSERT_TRUE(app.remove_binding(ip(100, 64, 9, 9), 63));
  EXPECT_EQ(app.params_for(ip(100, 64, 9, 9)), std::nullopt);
  EXPECT_TRUE(
      app.add_binding(ip(100, 64, 9, 9), 0, PsidParams{4, 0}, b4(500)));
}

// --- churn under live faulted traffic --------------------------------------

TEST(SoftwireChurn, LedgerClosesAndPoolStaysFlatUnderFaultedChurn) {
  constexpr std::uint32_t kSubscribers = 256;
  constexpr sim::TimePs kDuration = 60'000'000;  // 60 us

  fabric::TestbedConfig config;
  sim::FaultSpec faults;
  faults.drop_prob = 0.02;
  faults.duplicate_prob = 0.005;
  faults.reorder_prob = 0.03;
  faults.seed = 77;
  config.edge_faults = faults;

  LwAftrConfig aftr_config;
  aftr_config.aftr_addr = aftr();
  aftr_config.icmp_src = ip(192, 0, 2, 1);
  aftr_config.binding_capacity = kSubscribers * 2;
  aftr_config.miss_action = SoftwireMissAction::drop;
  auto app_owner = std::make_unique<LwAftr>(aftr_config);
  LwAftr* app = app_owner.get();
  for (std::uint32_t i = 0; i < kSubscribers; ++i) {
    ASSERT_TRUE(app->add_binding(lease_v4(i), lease_psid(i), kParams, b4(i)));
  }
  fabric::ModuleTestbed tb(std::move(config), std::move(app_owner));

  // One downstream template per subscriber; ports patched per emission.
  std::vector<net::Bytes> frames(kSubscribers);
  for (std::uint32_t i = 0; i < kSubscribers; ++i) {
    frames[i] = net::PacketBuilder()
                    .ethernet(mac(0xaa), mac(0xbb))
                    .ipv4(ip(192, 0, 2, 50), lease_v4(i), net::IpProto::udp)
                    .udp(9999, port_for_index(kParams, lease_psid(i), 0))
                    .payload_size(32)
                    .build();
    net::write_be16(frames[i], 14 + 20 + 6, 0);  // UDP checksum off
  }

  // CBR emitter at ~2 Gb/s through the fault injector.
  struct {
    sim::Simulation* sim = nullptr;
    sim::PacketHandler* out = nullptr;
    std::vector<net::Bytes>* frames = nullptr;
    sim::Rng rng{3};
    sim::TimePs gap = 0;
    std::uint64_t sent = 0;
    void emit() {
      if (sim->now() >= kDuration) return;
      const auto i = std::uint32_t(rng.uniform(0, kSubscribers - 1));
      auto packet = sim->packet_pool().make();
      packet->data() = (*frames)[i];
      const auto port = port_for_index(
          kParams, lease_psid(i),
          std::uint32_t(rng.uniform(0, port_set_size(kParams) - 1)));
      net::write_be16(packet->data(), 14 + 20 + 2, port);
      packet->set_id(sim->next_packet_id());
      packet->set_created_time_ps(sim->now());
      ++sent;
      out->handle_packet(std::move(packet));
      sim->schedule_in(gap, [this] { emit(); });
    }
  } gen;
  gen.sim = &tb.sim();
  gen.out = tb.edge_faults();
  ASSERT_NE(gen.out, nullptr);
  gen.frames = &frames;
  gen.gap = sim::DataRate::gbps(2.0).serialization_time(frames[0].size() + 24);

  // Lease churn while the traffic flows: every 10 us one in five leases
  // expires; 5 us later it is re-provisioned.
  for (int tick = 0; tick < 6; ++tick) {
    tb.sim().schedule_at(tick * 10'000'000, [app, tick] {
      for (std::uint32_t i = std::uint32_t(tick) % 5; i < kSubscribers; i += 5) {
        ASSERT_TRUE(app->remove_binding(lease_v4(i), lease_psid(i)));
      }
    });
    tb.sim().schedule_at(tick * 10'000'000 + 5'000'000, [app, tick] {
      for (std::uint32_t i = std::uint32_t(tick) % 5; i < kSubscribers; i += 5) {
        ASSERT_TRUE(app->add_binding(lease_v4(i), lease_psid(i), kParams,
                                     b4(i)));
      }
    });
  }

  tb.sim().schedule_at(0, [&gen] { gen.emit(); });
  const fabric::TestbedResult result = tb.run();

  // Zero-black-hole ledger: emitted (+ injector-minted duplicates) equals
  // delivered + every named drop point. Nothing vanishes unexplained. The
  // hand-rolled generator has no gen.emitted series, so gen.sent stands in
  // for the ledger's sent term.
  const fabric::FabricLedger& ledger = result.ledger;
  EXPECT_EQ(ledger.sent, 0u);
  EXPECT_EQ(ledger.delivered, tb.optical_sink().received().packets());
  EXPECT_EQ(gen.sent + ledger.duplicated, ledger.accounted())
      << "sent " << gen.sent << " dup " << ledger.duplicated << " delivered "
      << ledger.delivered << " injector " << ledger.fault_dropped
      << " queue " << ledger.queue_drops << " app " << ledger.app_drops;
  // Expired leases really did blackhole-with-receipt: some packets hit the
  // unmappable counter while their lease was down.
  EXPECT_GT(app->stat_packets(LwAftr::stat_unmappable_v4), 0u);
  EXPECT_EQ(app->stat_packets(LwAftr::stat_unmappable_v4) +
                app->stat_packets(LwAftr::stat_malformed),
            ledger.app_drops);

  // Pool discipline: the warm steady state allocates nothing. Every make()
  // beyond the first in-flight high-water mark is a reuse, and the pool
  // never spilled to the heap.
  const net::PacketPool::Stats pool = tb.sim().packet_pool().stats();
  EXPECT_EQ(pool.heap_fallbacks, 0u);
  EXPECT_EQ(pool.fresh, pool.high_watermark);  // growth == warmup only
  EXPECT_EQ(pool.made, pool.reused + pool.fresh);
  EXPECT_GT(pool.reused, pool.fresh);  // steady state dominated by reuse
}

}  // namespace
}  // namespace flexsfp::apps
