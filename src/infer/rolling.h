// Incremental (rolling-window) variant of the autocorrelation method, used
// by the longitudinal benches that classify every day of a 22-month study
// for ~1000 links: instead of rescanning the 50x96 grid per day, it
// maintains per-interval elevated-day counts and the number of present far
// bins, and updates them as days enter and leave a fixed ring of day slots.
// Guaranteed (and property-tested) to classify the newest day exactly as
// the batch AnalyzeWindow would on the same window.
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "infer/autocorr.h"

namespace manic::infer {

struct DayClassification {
  bool recurring = false;       // link shows recurring congestion this window
  RejectReason reject = RejectReason::kNone;
  bool congested = false;       // the newest day, inside the recurring window
  double fraction = 0.0;        // congestion level of the newest day
  int window_start = 0;
  int window_len = 0;
  double threshold_ms = 0.0;
  // Interval-of-day indices (within the recurring window) that were elevated
  // on the newest day — the per-interval detail Fig 9's histograms consume.
  std::vector<int> congested_intervals;
};

class RollingAutocorr {
 public:
  // A window_days <= 0 is clamped to 1: a window of the newest day alone.
  explicit RollingAutocorr(AutocorrConfig config = {});

  // Appends one day of per-interval minimum RTTs (NaN = missing bin) for
  // the far and near side; evicts the oldest day once the window is full.
  // Allocation-free: the day overwrites the oldest day's slot in the ring.
  void AddDay(std::span<const float> far, std::span<const float> near);

  // True once window_days days have been accumulated.
  bool WindowFull() const noexcept { return days_ >= config_.window_days; }
  int DaysHeld() const noexcept { return days_; }

  // Classification of the newest day against the current window.
  DayClassification Classify() const;

  // Batch-equivalent view of the current window (for tests).
  AutocorrResult AnalyzeBatch() const;

 private:
  // Ring offset of the first bin of window day d (0 = oldest held day).
  std::size_t RowStart(int d) const noexcept {
    return static_cast<std::size_t>((head_ + d) % config_.window_days) *
           static_cast<std::size_t>(config_.intervals_per_day);
  }
  void ComputeDayFlags(std::size_t row);

  AutocorrConfig config_;
  // One flat ring of window_days x intervals_per_day bins; day slots not
  // yet filled hold NaN. head_ is the oldest held day's slot.
  std::vector<float> far_;
  std::vector<float> near_;
  std::vector<std::uint8_t> flags_;  // elevated per bin
  int head_ = 0;
  int days_ = 0;
  std::size_t defined_ = 0;  // non-missing far bins held: the O(1) data guard
  std::vector<int> counts_;
  double far_min_ = std::numeric_limits<double>::infinity();
  double near_min_ = std::numeric_limits<double>::infinity();
};

}  // namespace manic::infer
