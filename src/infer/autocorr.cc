#include "infer/autocorr.h"

#include <algorithm>
#include <set>

namespace manic::infer {

DayGrid DayGrid::FromSeries(const stats::TimeSeries& series, TimeSec t0,
                            int days, TimeSec bin_width) {
  const int intervals = static_cast<int>(86400 / bin_width);
  DayGrid grid(days, intervals);
  const TimeSec t1 = t0 + static_cast<TimeSec>(days) * 86400;
  const std::size_t lo = series.LowerBound(t0);
  for (std::size_t i = lo; i < series.size() && series[i].t < t1; ++i) {
    const TimeSec rel = series[i].t - t0;
    const int day = static_cast<int>(rel / 86400);
    const int interval = static_cast<int>((rel % 86400) / bin_width);
    const float v = static_cast<float>(series[i].value);
    const float cur = grid.At(day, interval);
    if (Missing(cur) || v < cur) grid.Set(day, interval, v);
  }
  return grid;
}

namespace {

struct Elevation {
  double far_min = 0.0;
  double near_min = 0.0;
  double far_thr = 0.0;
  double near_thr = 0.0;
  std::size_t defined = 0;
};

Elevation ComputeThresholds(const DayGrid& far, const DayGrid& near,
                            const AutocorrConfig& cfg) {
  Elevation e;
  double fmin = std::numeric_limits<double>::infinity();
  double nmin = std::numeric_limits<double>::infinity();
  for (int d = 0; d < far.days(); ++d) {
    for (int s = 0; s < far.intervals(); ++s) {
      const float fv = far.At(d, s);
      if (!DayGrid::Missing(fv)) {
        fmin = std::min(fmin, static_cast<double>(fv));
        ++e.defined;
      }
      const float nv = near.At(d, s);
      if (!DayGrid::Missing(nv)) nmin = std::min(nmin, static_cast<double>(nv));
    }
  }
  e.far_min = std::isfinite(fmin) ? fmin : 0.0;
  e.near_min = std::isfinite(nmin) ? nmin : 0.0;
  e.far_thr = e.far_min + cfg.elevation_ms;
  e.near_thr = e.near_min + cfg.elevation_ms;
  return e;
}

bool Elevated(const DayGrid& far, const DayGrid& near, int d, int s,
              const Elevation& e) {
  const float fv = far.At(d, s);
  if (DayGrid::Missing(fv) || fv <= e.far_thr) return false;
  // Exclude intervals where the near side is itself elevated: the latency
  // rise is then inside the host network, not at the interdomain link.
  const float nv = near.At(d, s);
  if (!DayGrid::Missing(nv) && nv > e.near_thr) return false;
  return true;
}

}  // namespace

AutocorrResult AnalyzeWindow(const DayGrid& far, const DayGrid& near,
                             const AutocorrConfig& cfg) {
  AutocorrResult result;
  const int D = far.days();
  const int I = far.intervals();
  result.counts.assign(static_cast<std::size_t>(I), 0);
  result.day_congested.assign(static_cast<std::size_t>(D), 0);
  result.day_fraction.assign(static_cast<std::size_t>(D), 0.0);

  const Elevation e = ComputeThresholds(far, near, cfg);
  result.min_rtt_ms = e.far_min;
  result.threshold_ms = e.far_thr;
  if (e.defined < static_cast<std::size_t>(D) * I / 4) {
    result.reject = RejectReason::kInsufficientData;
    return result;
  }

  for (int d = 0; d < D; ++d) {
    for (int s = 0; s < I; ++s) {
      if (Elevated(far, near, d, s, e)) {
        ++result.counts[static_cast<std::size_t>(s)];
      }
    }
  }

  const detail::WindowDetection det = detail::DetectRecurringWindow(
      result.counts, D,
      [&](int d, int s) { return Elevated(far, near, d, s, e); }, cfg);
  result.window_start = det.window_start;
  result.window_len = det.window_len;
  result.reject = det.reject;
  if (!det.recurring) return result;

  // Per-day classification and congestion level.
  result.recurring = true;
  for (int d = 0; d < D; ++d) {
    int elevated_in_window = 0;
    for (int k = 0; k < det.window_len; ++k) {
      const int s = (det.window_start + k) % I;
      if (Elevated(far, near, d, s, e)) ++elevated_in_window;
    }
    result.day_congested[static_cast<std::size_t>(d)] =
        elevated_in_window > 0 ? 1 : 0;
    result.day_fraction[static_cast<std::size_t>(d)] =
        static_cast<double>(elevated_in_window) / static_cast<double>(I);
  }
  return result;
}

AutocorrResult MergeVpInferences(std::span<const AutocorrResult> per_vp,
                                 const AutocorrConfig& cfg) {
  AutocorrResult merged;
  (void)cfg;
  int best_peak = -1;
  std::size_t days = 0;
  for (const AutocorrResult& r : per_vp) days = std::max(days, r.day_fraction.size());
  merged.day_fraction.assign(days, 0.0);
  merged.day_congested.assign(days, 0);
  for (const AutocorrResult& r : per_vp) {
    if (!r.recurring) continue;
    merged.recurring = true;
    int peak = 0;
    for (const int c : r.counts) peak = std::max(peak, c);
    if (peak > best_peak) {
      best_peak = peak;
      merged.window_start = r.window_start;
      merged.window_len = r.window_len;
      merged.min_rtt_ms = r.min_rtt_ms;
      merged.threshold_ms = r.threshold_ms;
      merged.counts = r.counts;
    }
  }
  if (!merged.recurring) {
    merged.reject = per_vp.empty() ? RejectReason::kInsufficientData
                                   : per_vp.front().reject;
    return merged;
  }
  for (std::size_t d = 0; d < days; ++d) {
    LinkDayFold fold;
    for (const AutocorrResult& r : per_vp) {
      if (d < r.day_fraction.size()) fold.Add(r.recurring, r.day_fraction[d]);
    }
    merged.day_fraction[d] = fold.Fraction();
    merged.day_congested[d] = merged.day_fraction[d] > 0.0 ? 1 : 0;
  }
  return merged;
}

}  // namespace manic::infer
