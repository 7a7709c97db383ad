#include "serve/engine.h"

#include <cmath>
#include <limits>

#include "stats/calendar.h"

namespace manic::serve {

ShardEngine::ShardEngine(EngineConfig config) : config_(config) {}

// Per-sample admission: runs once for every record off the wire, so it is
// fenced by the linter's hot-path contract — no allocation, locking, or I/O
// except the explicitly justified cold branches below.
// manic-lint: hot-path(begin)
void ShardEngine::Ingest(const Sample& s) {
  if (s.kind == SampleKind::kLossRate) {
    ++samples_;
    return;
  }

  const std::int64_t day = stats::DayOf(s.t);
  if (has_closed_ && day <= closed_through_) {
    ++late_;
    return;
  }
  ++samples_;
  const std::int64_t within = s.t - day * stats::kSecPerDay;
  int interval = static_cast<int>(within / config_.autocorr.bin_width);
  if (interval < 0) interval = 0;
  if (interval >= config_.autocorr.intervals_per_day) {
    interval = config_.autocorr.intervals_per_day - 1;
  }

  const bool far_side =
      s.kind == SampleKind::kFarRtt || s.kind == SampleKind::kFarMissing;
  const bool missing =
      s.kind == SampleKind::kFarMissing || s.kind == SampleKind::kNearMissing;
  const float value_ms =
      missing ? std::numeric_limits<float>::quiet_NaN() : s.value;

  auto& per_vp = links_[s.link];
  auto it = per_vp.find(s.vp);
  if (it == per_vp.end()) {
    // First sample of a (link, vp) pair: a one-time classifier
    // construction, not the steady-state path.
    // manic-lint: allow(hot-path)
    it = per_vp.emplace(s.vp, infer::StreamingClassifier(config_.autocorr))
             .first;
  }
  it->second.AddSample(day, interval, far_side, value_ms);
}
// manic-lint: hot-path(end)

std::vector<VerdictRecord> ShardEngine::CloseDay(std::int64_t day) {
  has_closed_ = true;
  closed_through_ = day;
  // Study day-count for the quality grade, saturated so an extreme day
  // index cannot overflow the int cast.
  const int total_days =
      day >= static_cast<std::int64_t>(std::numeric_limits<int>::max())
          ? std::numeric_limits<int>::max()
          : static_cast<int>(day) + 1;
  std::vector<VerdictRecord> verdicts;
  for (auto& [link, per_vp] : links_) {
    infer::LinkDayFold fold;
    infer::LinkQualityAccumulator acc;
    bool measured = false;
    for (auto& [vp, state] : per_vp) {
      const infer::StreamingClassifier::DayOutcome outcome =
          state.CloseDay(day);
      if (outcome.classification) {
        fold.Add(outcome.classification->recurring,
                 outcome.classification->fraction);
      }
      if (state.quality().far_total > 0) {
        acc.Add(state.quality());
        measured = true;
      }
    }
    if (fold.contributors == 0) continue;
    VerdictRecord v;
    v.day = day;
    v.link = link;
    v.contributors = fold.contributors;
    v.asserting = fold.asserting;
    v.recurring = fold.asserting > 0;
    v.fraction = fold.Fraction();
    v.congested = fold.Congested();
    if (measured && day >= 0) {
      const infer::DataQuality q = acc.Finish(total_days);
      v.quality_ok = q.Acceptable(config_.autocorr.quality);
      v.far_coverage_frac = q.far_coverage_frac;
    }
    verdicts.push_back(v);
  }
  return verdicts;
}

std::map<topo::LinkId, infer::DataQuality> ShardEngine::QualitySnapshot(
    int total_days) const {
  std::map<topo::LinkId, infer::DataQuality> out;
  for (const auto& [link, per_vp] : links_) {
    infer::LinkQualityAccumulator acc;
    bool measured = false;
    for (const auto& [vp, state] : per_vp) {
      if (state.quality().far_total == 0) continue;
      acc.Add(state.quality());
      measured = true;
    }
    // manic-lint: allow(layout: alloc-scale) -- day-close deposit map,
    if (measured) out.emplace(link, acc.Finish(total_days));  // once per day.
  }
  return out;
}

}  // namespace manic::serve
