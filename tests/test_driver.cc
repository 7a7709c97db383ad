// Tests for the longitudinal study driver: the fast TSLP synthesizer must
// agree with real per-probe TSLP measurement (the scale/fidelity trade
// DESIGN.md calls out), and a reduced study must recover the scheduled
// congestion with high ground-truth accuracy.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

#include "analysis/classify.h"
#include "bdrmap/bdrmap.h"
#include "scenario/driver.h"
#include "scenario/small.h"
#include "sim/fault_hook.h"
#include "tslp/tslp.h"

namespace manic::scenario {
namespace {

constexpr sim::TimeSec kQuiet = 9 * 3600;

TEST(TslpSynthesizer, MatchesRealProbingOnTheSmallScenario) {
  // Run the real TSLP scheduler for 2 days on the congested NYC link and
  // compare its 15-minute far/near minima against the synthesizer's rows.
  auto s = MakeSmallScenario();
  bdrmap::Bdrmap bdrmap(*s.net, s.vp);
  const auto borders = bdrmap.RunCycle(kQuiet);

  tsdb::Database db;
  tslp::TslpScheduler tslp(*s.net, s.vp, db);
  tslp.UpdateProbingSet(borders);
  for (sim::TimeSec t = 0; t < 2 * 86400; t += 300) tslp.RunRound(t);

  // Locate the NYC link's far address.
  const topo::Link& l = s.topo->link(s.peering_nyc);
  const topo::Ipv4Addr far_addr =
      s.topo->iface(s.topo->IfaceOn(l, l.router_b)).addr;
  const analysis::LinkGrids real =
      analysis::LoadGrids(db, "vp-nyc", far_addr, 0, 2);

  // Synthesizer with baselines from the probing-free expectation.
  const bdrmap::BorderLink* link = borders.FindByFarAddr(far_addr);
  ASSERT_NE(link, nullptr);
  const auto& dest = link->dests.front();
  const auto base_far = s.net->ExpectProbe(
      s.vp, dest.dst, dest.far_ttl, sim::FlowId{dest.flow}, kQuiet, false);
  const auto base_near = s.net->ExpectProbe(
      s.vp, dest.dst, dest.far_ttl - 1, sim::FlowId{dest.flow}, kQuiet, false);
  ASSERT_TRUE(base_far.reachable);
  TslpSynthesizer synth(*s.net, s.peering_nyc, base_far.rtt_ms,
                        base_near.rtt_ms, 777);

  std::vector<float> far_row, near_row;
  int compared = 0;
  double max_err = 0.0;
  for (std::int64_t day = 0; day < 2; ++day) {
    synth.Day(day, far_row, near_row);
    for (int bin = 0; bin < 96; ++bin) {
      const float real_v = real.far.At(static_cast<int>(day), bin);
      const float synth_v = far_row[static_cast<std::size_t>(bin)];
      if (infer::DayGrid::Missing(real_v) || infer::DayGrid::Missing(synth_v)) {
        continue;
      }
      ++compared;
      max_err = std::max(max_err, std::abs(static_cast<double>(real_v) -
                                           static_cast<double>(synth_v)));
    }
  }
  ASSERT_GT(compared, 150);
  // Same demand + queue model evaluated either way: bins agree within the
  // per-probe jitter envelope.
  EXPECT_LT(max_err, 2.5);

  // And the inference outcome is identical.
  infer::AutocorrConfig cfg;
  cfg.window_days = 2;
  cfg.min_elevated_days = 2;
  infer::DayGrid sfar(2, 96), snear(2, 96);
  for (std::int64_t day = 0; day < 2; ++day) {
    synth.Day(day, far_row, near_row);
    for (int bin = 0; bin < 96; ++bin) {
      sfar.Set(static_cast<int>(day), bin, far_row[static_cast<std::size_t>(bin)]);
      snear.Set(static_cast<int>(day), bin, near_row[static_cast<std::size_t>(bin)]);
    }
  }
  const auto from_real = infer::AnalyzeWindow(real.far, real.near, cfg);
  const auto from_synth = infer::AnalyzeWindow(sfar, snear, cfg);
  EXPECT_EQ(from_real.recurring, from_synth.recurring);
  if (from_real.recurring) {
    EXPECT_NEAR(from_real.window_start, from_synth.window_start, 2);
  }
}

// One VP's faults: it is down for the first 40 minutes of every two hours
// (two whole 15-minute bins and two of the third bin's three rounds), and
// every fifth bin's tsdb writes are lost. Other VPs see no fault.
class OneVpFaults : public sim::FaultHook {
 public:
  explicit OneVpFaults(topo::VpId vp) : vp_(vp) {}
  bool VpUpAt(topo::VpId vp, stats::TimeSec t) const override {
    return vp != vp_ || t % 7200 >= 2400;
  }
  bool DropTsdbWriteAt(topo::VpId vp, stats::TimeSec t,
                       std::uint64_t /*noise*/) const override {
    return vp == vp_ && (t / 900) % 5 == 0;
  }

 private:
  topo::VpId vp_ = 0;
};

// Bitwise, so NaN (a missing bin) equals NaN.
std::vector<std::uint32_t> Bits(const std::vector<float>& row) {
  std::vector<std::uint32_t> bits;
  for (const float v : row) bits.push_back(std::bit_cast<std::uint32_t>(v));
  return bits;
}

int PresentBins(const std::vector<float>& row) {
  int n = 0;
  for (const float v : row) n += std::isnan(v) ? 0 : 1;
  return n;
}

// The study shares one link-day's rounds across every VP that sees the
// link. Each VP's pair step over those shared rounds must give exactly the
// rows its own Day() gives, with its own outages and dropped writes applied.
TEST(TslpSynthesizer, PairStepOverSharedRoundsMatchesDay) {
  const topo::VpId faulted_vp = 1;
  const OneVpFaults faults(faulted_vp);
  auto s = MakeSmallScenario();
  s.net->SetFaultHook(&faults);
  const TslpSynthesizer clean(*s.net, s.vp, s.peering_nyc, 20.0, 10.0, 11);
  const TslpSynthesizer faulted(*s.net, faulted_vp, s.peering_nyc, 25.0, 12.0,
                                22);
  std::vector<TslpSynthesizer::Round> shared, own;
  std::vector<float> far, near, day_far, day_near;
  double peak_delay_ms = 0.0;
  int clean_far = 0, faulted_far = 0;
  for (std::int64_t day = 0; day < 2; ++day) {
    clean.LinkRounds(day, clean.ShapeTable(), shared);
    ASSERT_EQ(shared.size(), 96u * 3u);
    // The link step does not depend on which of the link's synthesizers
    // computes it.
    faulted.LinkRounds(day, faulted.ShapeTable(), own);
    ASSERT_EQ(own.size(), shared.size());
    for (std::size_t i = 0; i < shared.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(own[i].delay_ms),
                std::bit_cast<std::uint64_t>(shared[i].delay_ms));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(own[i].p_lost),
                std::bit_cast<std::uint64_t>(shared[i].p_lost));
      peak_delay_ms = std::max(peak_delay_ms, shared[i].delay_ms);
    }
    for (const TslpSynthesizer* synth : {&clean, &faulted}) {
      synth->PairDay(day, shared, far, near);
      synth->Day(day, day_far, day_near);
      EXPECT_EQ(Bits(far), Bits(day_far)) << "day " << day;
      EXPECT_EQ(Bits(near), Bits(day_near)) << "day " << day;
    }
    clean.Day(day, far, near);
    clean_far += PresentBins(far);
    faulted.Day(day, far, near);
    faulted_far += PresentBins(far);
  }
  // Not vacuous: the link queues in its congested evenings, and the faulted
  // VP's outages and drops cost it bins the other VP keeps.
  EXPECT_GT(peak_delay_ms, 1.0);
  EXPECT_LT(faulted_far + 60, clean_far);
  s.net->SetFaultHook(nullptr);
}

// An hour-wide bin holds twelve 5-minute rounds, each carrying half of the
// bin's six probes. The per-round loss exponent must stay fractional: an
// integer 6 / 12 = 0 made every bin's all-lost probability 1, so no far bin
// was ever present.
TEST(TslpSynthesizer, HourBinsOnAnUncongestedLinkHaveFarBins) {
  auto s = MakeSmallScenario();
  TslpSynthesizer::Config config;
  config.bin_width = 3600;
  const TslpSynthesizer synth(*s.net, s.peering_lax, 20.0, 10.0, 5, config);
  std::vector<float> far, near;
  synth.Day(0, far, near);
  ASSERT_EQ(far.size(), 24u);
  EXPECT_GE(PresentBins(far), 20);
  EXPECT_GE(PresentBins(near), 20);
}

// Every round must fall on the demand model's 5-minute grid, so a bin is a
// whole number of rounds and a day a whole number of bins.
TEST(TslpSynthesizer, RejectsBinsOffTheFiveMinuteGrid) {
  auto s = MakeSmallScenario();
  TslpSynthesizer::Config config;
  for (const sim::TimeSec width : {0, -900, 450, 2100, 2 * 86400}) {
    config.bin_width = width;
    EXPECT_THROW(TslpSynthesizer(*s.net, s.peering_lax, 20.0, 10.0, 5, config),
                 std::invalid_argument)
        << width;
  }
  for (const sim::TimeSec width : {300, 900, 3600, 86400}) {
    config.bin_width = width;
    EXPECT_NO_THROW(
        TslpSynthesizer(*s.net, s.peering_lax, 20.0, 10.0, 5, config))
        << width;
  }
}

UsBroadband MiniWorld() {
  UsBroadbandOptions options;
  options.link_scale = 0.4;
  return MakeUsBroadband(options);
}

// The study's synthesizers take their bins from options.autocorr, so the
// rows the analyzer reads hold intervals_per_day bins: with hour bins the
// whole day is classified (a 96-bin row would leave 18 hours unread), and
// with 5-minute bins no read runs past a row's end.
TEST(StudyBinWidth, RowsFollowTheAutocorrBins) {
  for (const int intervals : {24, 288}) {
    StudyOptions options;
    options.days = 12;
    options.max_vps = 2;
    options.autocorr.intervals_per_day = intervals;
    options.autocorr.bin_width = 86400 / intervals;
    UsBroadband streamed = MiniWorld();
    std::size_t rows = 0, short_rows = 0;
    ExportStudyStream(streamed, options,
                      [&](topo::VpId, topo::LinkId, std::int64_t,
                          std::span<const float> far,
                          std::span<const float> near) {
                        ++rows;
                        if (far.size() != static_cast<std::size_t>(intervals) ||
                            near.size() != far.size()) {
                          ++short_rows;
                        }
                      });
    EXPECT_GT(rows, 100u) << intervals;
    EXPECT_EQ(short_rows, 0u) << intervals;
    UsBroadband world = MiniWorld();
    const StudyResult result = RunLongitudinalStudy(world, options);
    EXPECT_GT(result.day_links.TotalRecords(), 100) << intervals;
    EXPECT_GT(result.truth_tp + result.truth_tn, 100) << intervals;
  }
}

TEST(StudyBinWidth, MismatchedBinsThrowBeforeAnythingRuns) {
  UsBroadband world = MiniWorld();
  const sim::faults::FaultPlan plan;
  StudyOptions options;
  options.days = 12;
  options.max_vps = 1;
  options.fault_plan = &plan;
  const std::pair<sim::TimeSec, int> bad[] = {
      {3600, 96}, {300, 96}, {450, 192}, {0, 96}, {900, 95}};
  for (const auto& [width, intervals] : bad) {
    options.autocorr.bin_width = width;
    options.autocorr.intervals_per_day = intervals;
    EXPECT_THROW(RunLongitudinalStudy(world, options), std::invalid_argument)
        << width << " s x " << intervals;
    EXPECT_THROW(ExportStudyStream(world, options,
                                   [](topo::VpId, topo::LinkId, std::int64_t,
                                      std::span<const float>,
                                      std::span<const float>) {}),
                 std::invalid_argument)
        << width << " s x " << intervals;
    // The throw leaves no fault hook behind.
    EXPECT_EQ(world.net->fault_hook(), nullptr);
  }
  EXPECT_EQ(world.net->ProbesSent(), 0u);
}

class ReducedStudyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    UsBroadbandOptions options;
    options.link_scale = 0.5;
    world_ = new UsBroadband(MakeUsBroadband(options));
    StudyOptions study;
    study.days = 180;  // Mar - Aug 2016
    study.max_vps = 6;
    result_ = new StudyResult(RunLongitudinalStudy(*world_, study));
  }
  static void TearDownTestSuite() {
    delete result_;
    delete world_;
  }
  static UsBroadband* world_;
  static StudyResult* result_;
};

UsBroadband* ReducedStudyTest::world_ = nullptr;
StudyResult* ReducedStudyTest::result_ = nullptr;

TEST_F(ReducedStudyTest, DiscoversLinksAndProducesRecords) {
  EXPECT_GT(result_->vp_link_pairs, 50u);
  EXPECT_GT(result_->links_observed, 30u);
  EXPECT_GT(result_->day_links.TotalRecords(), 1000);
}

TEST_F(ReducedStudyTest, GroundTruthAccuracyHigh) {
  // The operator-validation analogue: inferred day-link states match the
  // simulator's truth (paper: 20/20 links consistent).
  EXPECT_GT(result_->TruthAccuracy(), 0.93);
  EXPECT_GT(result_->truth_tp, 50);
  EXPECT_GT(result_->truth_tn, 1000);
}

TEST_F(ReducedStudyTest, SevereAndCleanPairsSeparate) {
  // The first 6 VPs are all Comcast (7 in the plan, capped at 6):
  // Comcast-Google is in its scheduled Mar-Jun 2016 episode, so congested
  // day-links must appear; an unscheduled pair (Comcast-Zayo before month
  // 12) must stay clean.
  const auto& pairs = result_->day_links.Pairs();
  const auto cg = pairs.find({UsBroadband::kComcast, UsBroadband::kGoogle});
  ASSERT_NE(cg, pairs.end());
  EXPECT_GT(cg->second.PercentCongested(), 5.0);
  const auto cz = pairs.find({UsBroadband::kComcast, UsBroadband::kZayo});
  if (cz != pairs.end()) {
    EXPECT_LT(cz->second.PercentCongested(), 1.0);
  }
}

TEST_F(ReducedStudyTest, Fig9InputsEmptyOutside2017) {
  // The reduced study ends in Aug 2016: no 2017 intervals for Fig 9.
  EXPECT_EQ(result_->comcast_consolidated.Total(false), 0);
  EXPECT_EQ(result_->comcast_consolidated.Total(true), 0);
}

}  // namespace
}  // namespace manic::scenario
