// Tests for the network simulator: calendar math, diurnal demand, the fluid
// queue model (validated against the packet-level event simulator), BGP-style
// routing (valley-free preferences), router-level path construction, probe
// semantics (TTL expiry, near/far RTT asymmetry under congestion, ECMP flow
// stickiness, asymmetric return overrides) and the deterministic probe
// expectation used by the loss module.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>

#include "runtime/seed_tree.h"
#include "scenario/small.h"
#include "sim/demand.h"
#include "sim/faults/fault_injector.h"
#include "sim/link_model.h"
#include "sim/network.h"
#include "sim/packet_queue.h"
#include "stats/calendar.h"
#include "stats/descriptive.h"

namespace manic::sim {
namespace {

using scenario::MakeSmallScenario;
using scenario::SmallScenario;
using scenario::SmallScenarioOptions;
using stats::DayOf;
using stats::DaysInStudyMonth;
using stats::IsWeekend;
using stats::kSecPerDay;
using stats::kSecPerHour;
using stats::kSecPerMin;
using stats::LocalHour;
using stats::LocalWeekday;
using stats::SecondOfDayUtc;
using stats::StartOfDay;
using stats::StudyMonthLabel;
using stats::StudyMonthOfDay;
using stats::StudyMonthStartDay;
using stats::StudyTotalDays;

// ---------------------------------------------------------------- calendar

TEST(SimTime, DayAndSecondOfDay) {
  EXPECT_EQ(DayOf(0), 0);
  EXPECT_EQ(DayOf(86399), 0);
  EXPECT_EQ(DayOf(86400), 1);
  EXPECT_EQ(DayOf(-1), -1);
  EXPECT_EQ(SecondOfDayUtc(86400 + 3600), 3600);
}

TEST(SimTime, LocalHourAndWeekday) {
  // Epoch is Tuesday 2016-03-01 00:00 UTC.
  EXPECT_EQ(LocalWeekday(0, 0), 2);
  EXPECT_EQ(LocalWeekday(0, -5), 1);           // still Monday evening in NYC
  EXPECT_NEAR(LocalHour(0, -5), 19.0, 1e-9);   // 19:00 local
  EXPECT_NEAR(LocalHour(6 * 3600, -5), 1.0, 1e-9);
  EXPECT_TRUE(IsWeekend(0));
  EXPECT_TRUE(IsWeekend(6));
  EXPECT_FALSE(IsWeekend(3));
  // Four days after epoch = Saturday.
  EXPECT_TRUE(IsWeekend(LocalWeekday(4 * kSecPerDay + 43200, 0)));
}

TEST(SimTime, StudyMonths) {
  EXPECT_EQ(DaysInStudyMonth(0), 31);   // 2016-03
  EXPECT_EQ(DaysInStudyMonth(11), 28);  // 2017-02
  EXPECT_EQ(StudyMonthStartDay(0), 0);
  EXPECT_EQ(StudyMonthStartDay(1), 31);
  EXPECT_EQ(StudyMonthLabel(0), "2016-03");
  EXPECT_EQ(StudyMonthLabel(9), "2016-12");
  EXPECT_EQ(StudyMonthLabel(10), "2017-01");
  EXPECT_EQ(StudyMonthLabel(21), "2017-12");
  EXPECT_EQ(StudyMonthOfDay(0), 0);
  EXPECT_EQ(StudyMonthOfDay(31), 1);
  EXPECT_EQ(StudyMonthOfDay(StudyTotalDays() - 1), 21);
  // Mar 2016..Dec 2017 = 306 + 365 days.
  EXPECT_EQ(StudyTotalDays(), 671);
}

// ------------------------------------------------------------------ demand

TEST(Demand, DiurnalShapePeaksInTheEvening) {
  DiurnalShape shape;
  const double peak = shape.At(20.5, false);
  EXPECT_GT(peak, shape.At(4.0, false));
  EXPECT_GT(peak, shape.At(12.0, false));
  EXPECT_NEAR(peak, 1.0, 0.05);
  EXPECT_NEAR(shape.At(4.0, false), shape.trough, 0.15);
  // Wrap-around continuity at midnight.
  EXPECT_NEAR(shape.At(23.99, false), shape.At(0.01, false), 0.02);
}

TEST(Demand, RegimeScheduleAndRamp) {
  LinkDemand demand;
  demand.default_peak_utilization = 0.5;
  demand.regimes.push_back({10, 20, 1.2, -1.0});
  demand.regimes.push_back({30, 40, 1.0, 2.0});  // ramp 1.0 -> 2.0
  EXPECT_DOUBLE_EQ(demand.PeakTarget(5), 0.5);
  EXPECT_DOUBLE_EQ(demand.PeakTarget(10), 1.2);
  EXPECT_DOUBLE_EQ(demand.PeakTarget(19), 1.2);
  EXPECT_DOUBLE_EQ(demand.PeakTarget(20), 0.5);
  EXPECT_DOUBLE_EQ(demand.PeakTarget(30), 1.0);
  EXPECT_NEAR(demand.PeakTarget(35), 1.5, 1e-12);
}

TEST(Demand, UtilizationPeaksAtLocalEvening) {
  LinkDemand demand;
  demand.default_peak_utilization = 1.0;
  demand.noise_sigma = 0.0;
  // 20:30 local at UTC-5 is 01:30 UTC the next day.
  const TimeSec evening = 25 * kSecPerHour + 30 * kSecPerMin;
  const TimeSec morning = 9 * kSecPerHour;  // 04:00 local
  EXPECT_GT(demand.MeanUtilization(evening, -5),
            demand.MeanUtilization(morning, -5));
  EXPECT_NEAR(demand.MeanUtilization(evening, -5), 1.0, 0.05);
}

TEST(Demand, NoiseIsReproducibleAndBounded) {
  LinkDemand demand;
  demand.default_peak_utilization = 0.8;
  demand.noise_sigma = 0.03;
  demand.noise_seed = 99;
  const double u1 = demand.Utilization(1000, -5);
  EXPECT_DOUBLE_EQ(u1, demand.Utilization(1000, -5));
  double max_rel = 0.0;
  for (TimeSec t = 0; t < kSecPerDay; t += 300) {
    const double mean = demand.MeanUtilization(t, -5);
    const double noisy = demand.Utilization(t, -5);
    max_rel = std::max(max_rel, std::fabs(noisy - mean) / mean);
  }
  EXPECT_LT(max_rel, 0.25);
  EXPECT_GT(max_rel, 0.0);
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// The day-granular entries read the diurnal shape from a table by local
// slot and local weekend flag; every slot must give exactly the bits the
// per-time functions give. The days cover warm-up (negative) days, weekends
// and the UTC days in which the local weekend starts or ends, under ramped
// and overlapping regimes; the offsets put local midnight anywhere in the
// UTC day.
TEST(Demand, DayUtilizationMatchesPerTimeBitForBit) {
  LinkDemand demand;
  demand.shape.peak_width_h = 2.9;
  demand.default_peak_utilization = 0.7;
  demand.regimes.push_back({-40, -5, 1.1, 0.8});  // warm-up ramp down
  demand.regimes.push_back({0, 12, 1.25});
  demand.regimes.push_back({6, 30, 0.9, 1.5});  // ramp over the regime above
  demand.noise_seed = 1234;
  const DiurnalTable table(demand.shape);
  std::array<double, kSlotsPerDay> mean{}, noisy{};
  int mixed_weekend_days = 0;
  for (const double sigma : {0.0, 0.04}) {
    demand.noise_sigma = sigma;
    for (int tz = -10; tz <= 10; ++tz) {
      for (std::int64_t day = -45; day <= 32; ++day) {
        demand.MeanDayUtilization(day, tz, table, mean);
        demand.DayUtilization(day, tz, table, noisy);
        int weekend_slots = 0;
        for (int i = 0; i < kSlotsPerDay; ++i) {
          const TimeSec t = StartOfDay(day) + i * kSlotSec;
          ASSERT_EQ(Bits(mean[static_cast<std::size_t>(i)]),
                    Bits(demand.MeanUtilization(t, tz)))
              << "day " << day << " tz " << tz << " slot " << i;
          ASSERT_EQ(Bits(noisy[static_cast<std::size_t>(i)]),
                    Bits(demand.Utilization(t, tz)))
              << "sigma " << sigma << " day " << day << " tz " << tz
              << " slot " << i;
          weekend_slots += IsWeekend(LocalWeekday(t, tz)) ? 1 : 0;
        }
        if (weekend_slots > 0 && weekend_slots < kSlotsPerDay) {
          ++mixed_weekend_days;
        }
      }
    }
  }
  // Not vacuous: the local weekend begins or ends inside many UTC days.
  EXPECT_GT(mixed_weekend_days, 100);
}

// -------------------------------------------------------------- link model

TEST(LinkModel, DelayMonotoneAndPlateaus) {
  LinkQueueModel model;
  double prev = -1.0;
  for (double u = 0.0; u <= 1.5; u += 0.05) {
    const QueueObservation obs = model.Observe(u);
    EXPECT_GE(obs.delay_ms, prev - 1e-12);
    prev = obs.delay_ms;
  }
  EXPECT_LT(model.Observe(0.5).delay_ms, 1.0);
  EXPECT_DOUBLE_EQ(model.Observe(1.0).delay_ms, model.buffer_ms);
  EXPECT_DOUBLE_EQ(model.Observe(1.3).delay_ms, model.buffer_ms);
}

TEST(LinkModel, LossOnsetNearSaturation) {
  LinkQueueModel model;
  EXPECT_NEAR(model.Observe(0.5).loss_prob, model.loss_floor, 1e-6);
  EXPECT_LT(model.Observe(0.9).loss_prob, 0.01);
  // Above saturation: elastic demand keeps sustained loss at a few percent,
  // growing with the overload ratio and capped (cf. Fig 3's loss scale).
  EXPECT_NEAR(model.Observe(1.05).loss_prob, 0.0042 + 0.05 * 0.05, 2e-3);
  EXPECT_GT(model.Observe(1.3).loss_prob, model.Observe(1.05).loss_prob);
  EXPECT_NEAR(model.Observe(2.0).loss_prob,
              model.loss_floor + 0.004 + model.max_sat_loss, 1e-9);
  // Continuity across the saturation boundary.
  EXPECT_NEAR(model.Observe(0.9999).loss_prob, model.Observe(1.0001).loss_prob,
              1e-3);
}

// The packet-level event-driven queue reproduces the fluid model's two key
// regimes: tiny delay below saturation and buffer-plateau + proportional
// loss above it (the design choice DESIGN.md calls out).
TEST(PacketQueue, ValidatesFluidModelBelowSaturation) {
  PacketQueueConfig config;
  config.capacity_bps = 1e9;
  config.buffer_bytes = 6.25e6;  // 50 ms at 1 Gbps
  PacketQueueSim sim(config, 7);
  const PacketQueueStats stats = sim.Run(0.7, 20.0);
  EXPECT_GT(stats.arrivals, 100000u);
  EXPECT_LT(stats.LossRate(), 1e-4);
  EXPECT_LT(stats.mean_queue_delay_ms, 2.0);
}

TEST(PacketQueue, ValidatesFluidModelAboveSaturation) {
  PacketQueueConfig config;
  config.capacity_bps = 1e9;
  config.buffer_bytes = 6.25e6;
  PacketQueueSim sim(config, 8);
  const double u = 1.1;
  const PacketQueueStats stats = sim.Run(u, 20.0);
  // Loss approaches 1 - 1/u once the buffer stands full.
  EXPECT_NEAR(stats.LossRate(), 1.0 - 1.0 / u, 0.02);
  // Delay plateaus at the buffer drain time (50 ms).
  EXPECT_NEAR(stats.max_queue_delay_ms, 50.0, 2.0);
  EXPECT_GT(stats.mean_queue_delay_ms, 35.0);
}

TEST(PacketQueue, ProbesSampleTheStandingQueue) {
  PacketQueueConfig config;
  config.capacity_bps = 1e9;
  config.buffer_bytes = 6.25e6;
  PacketQueueSim sim(config, 9);
  std::vector<double> delays;
  std::uint64_t drops = 0;
  sim.RunWithProbes(1.05, 10.0, 0.05, &delays, &drops);
  ASSERT_GT(delays.size() + drops, 150u);
  // Probes through a saturated queue either see ~full-buffer delay or drop.
  if (!delays.empty()) {
    EXPECT_GT(stats::Quantile(delays, 0.9), 40.0);
  }
  EXPECT_GT(drops, 0u);
}

// ----------------------------------------------------------------- routing

class RoutingTest : public ::testing::Test {
 protected:
  void SetUp() override { s_ = MakeSmallScenario(); }
  SmallScenario s_;
};

TEST_F(RoutingTest, PeerRoutePreferredOverProvider) {
  // Access reaches Content via the direct peering, not via TransitCo.
  const auto path = s_.net->routing().AsPath(SmallScenario::kAccess,
                                             SmallScenario::kContent);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], SmallScenario::kAccess);
  EXPECT_EQ(path[1], SmallScenario::kContent);
}

TEST_F(RoutingTest, CustomerRoutePreferredOverPeer) {
  // Content reaches its stub customer directly.
  const auto path = s_.net->routing().AsPath(SmallScenario::kContent,
                                             SmallScenario::kStubCustomer);
  ASSERT_EQ(path.size(), 2u);
}

TEST_F(RoutingTest, ValleyFreeStubReachedThroughPeerNotUpDown) {
  // Access -> stub: peer route (via Content, length 3) wins over the
  // provider route via Transit (also available). Customer > peer > provider
  // applies at Access: it has no customer route to the stub, so the peer
  // route through Content is chosen.
  const auto path = s_.net->routing().AsPath(SmallScenario::kAccess,
                                             SmallScenario::kStubCustomer);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1], SmallScenario::kContent);
}

TEST_F(RoutingTest, RouteTypesExposed) {
  const auto via_peer = s_.net->routing().Route(SmallScenario::kAccess,
                                                SmallScenario::kContent);
  EXPECT_EQ(via_peer.type, RouteType::kPeer);
  const auto via_provider = s_.net->routing().Route(
      SmallScenario::kContent, SmallScenario::kAccessSibling);
  // Content has no customer/peer route to the sibling: goes via provider?
  // Sibling is a customer of Access; Content peers with Access, and peer
  // routes export customer-learned routes, so Content hears it via the peer.
  EXPECT_EQ(via_provider.type, RouteType::kPeer);
  const auto self = s_.net->routing().Route(SmallScenario::kAccess,
                                            SmallScenario::kAccess);
  EXPECT_EQ(self.type, RouteType::kOrigin);
}

TEST_F(RoutingTest, IntraPathBfs) {
  const auto path = s_.net->routing().IntraPath(s_.access_nyc, s_.access_lax);
  ASSERT_TRUE(path.has_value());
  ASSERT_EQ(path->size(), 3u);  // nyc - core - lax
  EXPECT_EQ((*path)[1], s_.access_core);
  EXPECT_EQ(s_.net->routing().IntraDistance(s_.access_nyc, s_.access_lax), 2);
  EXPECT_EQ(s_.net->routing().IntraDistance(s_.access_core, s_.access_core), 0);
}

// ------------------------------------------------------------------ probes

class ProbeSemanticsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    s_ = MakeSmallScenario();
    dst_ = *s_.topo->DestinationIn(SmallScenario::kStubCustomer, 0);
  }
  // 21:00 local NYC on epoch day 2 (a weekday peak instant).
  TimeSec Peak() const { return 2 * kSecPerDay + 26 * kSecPerHour; }
  // 04:00 local NYC.
  TimeSec Trough() const { return 2 * kSecPerDay + 9 * kSecPerHour; }

  SmallScenario s_;
  topo::Ipv4Addr dst_;
};

TEST_F(ProbeSemanticsTest, TracerouteStyleTtlSemantics) {
  const FlowId flow{100};
  const ProbeReply ttl1 = s_.net->Probe(s_.vp, dst_, 1, flow, Trough());
  ASSERT_EQ(ttl1.outcome, ProbeOutcome::kTtlExpired);
  // First hop is the VP's attachment router responding with the uplink iface.
  const topo::Link& up = s_.topo->link(s_.topo->vp(s_.vp).uplink);
  EXPECT_EQ(ttl1.responder, s_.topo->iface(up.iface_a).addr);

  const ProbeReply echo = s_.net->Probe(s_.vp, dst_, 32, flow, Trough());
  EXPECT_EQ(echo.outcome, ProbeOutcome::kEchoReply);
  EXPECT_EQ(echo.responder, dst_);
}

TEST_F(ProbeSemanticsTest, FarRttElevatedOnlyDuringPeak) {
  // Destination behind ContentCo via the congested NYC peering link.
  const auto cdst = *s_.topo->DestinationIn(SmallScenario::kContent, 0);
  const FlowId flow{7};
  // Locate the far hop (ContentCo border router) TTL via the path.
  const ForwardPath& path = s_.net->PathFromVp(s_.vp, cdst, flow);
  ASSERT_TRUE(path.reached);
  int far_ttl = -1;
  for (std::size_t i = 0; i < path.hops.size(); ++i) {
    if (s_.topo->router(path.hops[i].router).owner == SmallScenario::kContent) {
      far_ttl = static_cast<int>(i) + 1;
      break;
    }
  }
  ASSERT_GT(far_ttl, 1);

  auto min_rtt = [&](int ttl, TimeSec t) {
    double best = 1e9;
    for (int i = 0; i < 12; ++i) {
      const ProbeReply r = s_.net->Probe(s_.vp, cdst, ttl, flow, t + i);
      if (r.outcome == ProbeOutcome::kTtlExpired) best = std::min(best, r.rtt_ms);
    }
    return best;
  };

  const double far_peak = min_rtt(far_ttl, Peak());
  const double far_trough = min_rtt(far_ttl, Trough());
  const double near_peak = min_rtt(far_ttl - 1, Peak());
  const double near_trough = min_rtt(far_ttl - 1, Trough());

  // The reply from the far router crosses the congested content->access
  // queue at peak: far RTT rises by roughly the buffer delay; near RTT and
  // off-peak RTTs stay at baseline.
  EXPECT_GT(far_peak, far_trough + 20.0);
  EXPECT_LT(std::fabs(near_peak - near_trough), 5.0);
  EXPECT_LT(far_trough, 15.0);
}

TEST_F(ProbeSemanticsTest, EcmpStableForFixedFlowAndSpreadAcrossFlows) {
  // Parallel peering links NYC and LAX: different flows may pick different
  // egresses toward ContentCo, but one flow always takes the same path.
  const auto cdst = *s_.topo->DestinationIn(SmallScenario::kContent, 3);
  const ForwardPath& p1 = s_.net->PathFromVp(s_.vp, cdst, FlowId{1});
  const ForwardPath& p1_again = s_.net->PathFromVp(s_.vp, cdst, FlowId{1});
  ASSERT_TRUE(p1.reached);
  EXPECT_EQ(&p1, &p1_again);  // cached, identical

  // Hot potato from acc-core: nyc and lax borders are both 1 intra hop, so
  // ECMP hashes over both peering links; across many flows both must appear.
  bool saw_nyc = false, saw_lax = false;
  for (std::uint16_t f = 0; f < 64; ++f) {
    const ForwardPath& p = s_.net->PathFromVp(s_.vp, cdst, FlowId{f});
    for (const Hop& h : p.hops) {
      if (h.via_link == s_.peering_nyc) saw_nyc = true;
      if (h.via_link == s_.peering_lax) saw_lax = true;
    }
  }
  EXPECT_TRUE(saw_nyc);
  EXPECT_TRUE(saw_lax);
}

TEST_F(ProbeSemanticsTest, ReturnOverrideForcesAsymmetricReply) {
  // Force replies computed from the ContentCo NYC border toward the VP to
  // exit via the LAX peering instead: the far probe's reply then avoids the
  // congested NYC queue and the far RTT stays flat at peak (§7, Table 2).
  s_.net->SetReturnOverride(s_.content_nyc, SmallScenario::kAccess,
                            s_.peering_lax);
  s_.net->InvalidatePaths();

  const auto cdst = *s_.topo->DestinationIn(SmallScenario::kContent, 0);
  const FlowId flow{7};
  const ForwardPath& path = s_.net->PathFromVp(s_.vp, cdst, flow);
  int far_ttl = -1;
  for (std::size_t i = 0; i < path.hops.size(); ++i) {
    if (path.hops[i].via_link == s_.peering_nyc) {
      far_ttl = static_cast<int>(i) + 1;
      break;
    }
  }
  if (far_ttl < 0) GTEST_SKIP() << "flow hashed onto the LAX link";

  double best = 1e9;
  for (int i = 0; i < 12; ++i) {
    const ProbeReply r = s_.net->Probe(s_.vp, cdst, far_ttl, flow, Peak() + i);
    if (r.outcome == ProbeOutcome::kTtlExpired) best = std::min(best, r.rtt_ms);
  }
  // Reply detours via LAX: higher propagation than NYC but no 45 ms queue.
  EXPECT_LT(best, 40.0);
}

TEST_F(ProbeSemanticsTest, ExpectProbeMatchesMonteCarlo) {
  const auto cdst = *s_.topo->DestinationIn(SmallScenario::kContent, 0);
  const FlowId flow{7};
  const ForwardPath& path = s_.net->PathFromVp(s_.vp, cdst, flow);
  int far_ttl = -1;
  for (std::size_t i = 0; i < path.hops.size(); ++i) {
    if (path.hops[i].via_link == s_.peering_nyc ||
        path.hops[i].via_link == s_.peering_lax) {
      far_ttl = static_cast<int>(i) + 1;
      break;
    }
  }
  ASSERT_GT(far_ttl, 0);
  const TimeSec t = Peak();
  const auto exp = s_.net->ExpectProbe(s_.vp, cdst, far_ttl, flow, t);
  ASSERT_TRUE(exp.reachable);

  int lost = 0;
  double rtt_acc = 0.0;
  int got = 0;
  constexpr int kTrials = 3000;
  for (int i = 0; i < kTrials; ++i) {
    // Same instant: the demand noise is frozen, matching the expectation.
    const ProbeReply r = s_.net->Probe(s_.vp, cdst, far_ttl, flow, t);
    if (r.outcome == ProbeOutcome::kTtlExpired) {
      rtt_acc += r.rtt_ms;
      ++got;
    } else {
      ++lost;
    }
  }
  const double loss_rate = static_cast<double>(lost) / kTrials;
  EXPECT_NEAR(loss_rate, exp.loss_prob, 0.02);
  ASSERT_GT(got, 0);
  EXPECT_NEAR(rtt_acc / got, exp.rtt_ms, 1.0);
}

TEST_F(ProbeSemanticsTest, GroundTruthCongestedFraction) {
  // Peak utilization 1.3 => a few congested hours per day.
  const double frac =
      s_.net->TrueCongestedFraction(s_.peering_nyc, Direction::kBtoA, 2);
  EXPECT_GT(frac, 0.05);
  EXPECT_LT(frac, 0.5);
  // The clean LAX link never saturates.
  EXPECT_DOUBLE_EQ(
      s_.net->TrueCongestedFraction(s_.peering_lax, Direction::kBtoA, 2), 0.0);
  // Forward (access->content) direction of the NYC link is mild.
  EXPECT_DOUBLE_EQ(
      s_.net->TrueCongestedFraction(s_.peering_nyc, Direction::kAtoB, 2), 0.0);
}

// The network's day entries against its per-time queries, slot by slot and
// bit for bit, with and without a fault schedule in which the congested
// link goes down for part of day 3 and browns out over part of its evening
// peak on day 4. The transit link has no demand model.
TEST_F(ProbeSemanticsTest, DayQueriesMatchPerTimeQueriesUnderFaults) {
  const LinkId nyc = s_.peering_nyc;
  faults::FaultPlan plan;
  plan.LinkDown(nyc, 3 * kSecPerDay + 2 * kSecPerHour + 7 * kSecPerMin,
                3 * kSecPerDay + 4 * kSecPerHour);
  plan.LinkBrownout(nyc, 4 * kSecPerDay + 23 * kSecPerHour,
                    5 * kSecPerDay + 1 * kSecPerHour + 30 * kSecPerMin, 0.8);
  const faults::FaultInjector injector(plan, runtime::SeedTree(5).Child("f"));
  std::array<QueueObservation, kSlotsPerDay> obs{};
  std::array<double, kSlotsPerDay> mean{};
  int down_slots = 0, saturated_slots = 0;
  for (const bool faulted : {false, true}) {
    s_.net->SetFaultHook(faulted ? &injector : nullptr);
    for (const LinkId link : {nyc, s_.peering_lax, s_.transit_access}) {
      for (const Direction dir : {Direction::kAtoB, Direction::kBtoA}) {
        const DiurnalTable table = s_.net->ShapeTable(link, dir);
        for (std::int64_t day = -2; day <= 6; ++day) {
          s_.net->ObservedQueueDay(link, dir, day, table, obs);
          s_.net->MeanUtilizationDay(link, dir, day, table, mean);
          for (int i = 0; i < kSlotsPerDay; ++i) {
            const TimeSec t = StartOfDay(day) + i * kSlotSec;
            const QueueObservation want = s_.net->ObservedQueue(link, dir, t);
            const auto k = static_cast<std::size_t>(i);
            ASSERT_EQ(Bits(obs[k].delay_ms), Bits(want.delay_ms))
                << "link " << link << " day " << day << " slot " << i;
            ASSERT_EQ(Bits(obs[k].loss_prob), Bits(want.loss_prob))
                << "link " << link << " day " << day << " slot " << i;
            ASSERT_EQ(Bits(mean[k]),
                      Bits(s_.net->MeanUtilization(link, dir, t)))
                << "link " << link << " day " << day << " slot " << i;
            down_slots += obs[k].loss_prob == 1.0 ? 1 : 0;
            saturated_slots += mean[k] >= 1.0 ? 1 : 0;
          }
        }
      }
    }
  }
  s_.net->SetFaultHook(nullptr);
  // Not vacuous: the outage covers 22 slots of day 3 in each direction, and
  // the link saturates every evening.
  EXPECT_EQ(down_slots, 2 * 22);
  EXPECT_GT(saturated_slots, 100);
}

TEST_F(ProbeSemanticsTest, MetricsForSeesDownstreamCongestion) {
  // Find a destination whose serving router is the ContentCo NYC border, so
  // the hot-potato return path (the download direction) crosses the
  // congested NYC queue.
  for (std::size_t k = 0; k < 16; ++k) {
    const auto cdst = *s_.topo->DestinationIn(SmallScenario::kContent, k);
    for (std::uint16_t f = 0; f < 8; ++f) {
      const ForwardPath& p = s_.net->PathFromVp(s_.vp, cdst, FlowId{f});
      if (!p.reached || p.hops.empty()) continue;
      if (p.hops.back().router != s_.content_nyc) continue;
      const PathMetrics peak = s_.net->MetricsFor(s_.vp, cdst, FlowId{f}, Peak());
      const PathMetrics off =
          s_.net->MetricsFor(s_.vp, cdst, FlowId{f}, Trough());
      ASSERT_TRUE(peak.reachable);
      EXPECT_GT(peak.loss_down, 0.012);  // elastic overload at u=1.3: ~1.9%
      EXPECT_LT(off.loss_down, 0.01);
      EXPECT_GT(peak.rtt_ms, off.rtt_ms + 20.0);
      EXPECT_EQ(peak.worst_down_link, s_.peering_nyc);
      return;
    }
  }
  FAIL() << "no destination served from the ContentCo NYC border";
}

TEST_F(ProbeSemanticsTest, MetricsForHotPotatoAsymmetryAvoidsQueue) {
  // A destination served from ContentCo LAX: the forward path may enter at
  // NYC, but the return (download) exits at LAX and dodges the NYC queue —
  // exactly the asymmetric-path confound of §7.
  for (std::size_t k = 0; k < 16; ++k) {
    const auto cdst = *s_.topo->DestinationIn(SmallScenario::kContent, k);
    const ForwardPath& p = s_.net->PathFromVp(s_.vp, cdst, FlowId{5});
    if (!p.reached || p.hops.empty()) continue;
    if (p.hops.back().router != s_.content_lax) continue;
    const PathMetrics peak = s_.net->MetricsFor(s_.vp, cdst, FlowId{5}, Peak());
    ASSERT_TRUE(peak.reachable);
    EXPECT_LT(peak.loss_down, 0.01);
    EXPECT_NE(peak.worst_down_link, s_.peering_nyc);
    return;
  }
  GTEST_SKIP() << "no destination served from ContentCo LAX";
}

TEST_F(ProbeSemanticsTest, IcmpBehaviorKnobs) {
  // A silent router never answers TTL-limited probes.
  s_.topo->router(s_.access_nyc).icmp.responds = false;
  const auto cdst = *s_.topo->DestinationIn(SmallScenario::kContent, 0);
  const FlowId flow{7};
  const ForwardPath& path = s_.net->PathFromVp(s_.vp, cdst, flow);
  for (std::size_t i = 0; i < path.hops.size(); ++i) {
    if (path.hops[i].router == s_.access_nyc) {
      const ProbeReply r = s_.net->Probe(s_.vp, cdst, static_cast<int>(i) + 1,
                                         flow, Trough());
      EXPECT_EQ(r.outcome, ProbeOutcome::kLost);
      return;
    }
  }
  GTEST_SKIP() << "path did not cross acc-br-nyc";
}

}  // namespace
}  // namespace manic::sim
