#include "infer/rolling.h"

#include <algorithm>

namespace manic::infer {

RollingAutocorr::RollingAutocorr(AutocorrConfig config)
    : config_(config),
      counts_(static_cast<std::size_t>(config.intervals_per_day), 0) {
  config_.window_days = std::max(1, config_.window_days);
  const std::size_t bins = static_cast<std::size_t>(config_.window_days) *
                           static_cast<std::size_t>(config_.intervals_per_day);
  far_.assign(bins, std::numeric_limits<float>::quiet_NaN());
  near_ = far_;
  flags_.assign(bins, 0);
}

namespace {

// Minimum far and near RTT over some bins, and how many far bins are present.
struct BinSummary {
  float far_min = std::numeric_limits<float>::infinity();
  float near_min = std::numeric_limits<float>::infinity();
  std::size_t far_defined = 0;
};

BinSummary Summarize(std::span<const float> far,
                     std::span<const float> near) noexcept {
  BinSummary sum;
  for (std::size_t b = 0; b < far.size(); ++b) {
    if (!DayGrid::Missing(far[b])) {
      ++sum.far_defined;
      sum.far_min = std::min(sum.far_min, far[b]);
    }
    if (!DayGrid::Missing(near[b])) sum.near_min = std::min(sum.near_min, near[b]);
  }
  return sum;
}

}  // namespace

// Per-day window upkeep for every pair of the study and every CloseDay of
// the serving plane; fenced by the linter's hot-path contract.
// manic-lint: hot-path(begin)
void RollingAutocorr::ComputeDayFlags(std::size_t row) {
  const double far_thr = far_min_ + config_.elevation_ms;
  const double near_thr = near_min_ + config_.elevation_ms;
  for (int s = 0; s < config_.intervals_per_day; ++s) {
    const std::size_t b = row + static_cast<std::size_t>(s);
    // A missing (NaN) bin compares false: a missing far bin is never
    // elevated, and a missing near bin never vetoes the far side.
    flags_[b] = far_[b] > far_thr && !(near_[b] > near_thr);
    counts_[static_cast<std::size_t>(s)] += flags_[b];
  }
}

void RollingAutocorr::AddDay(std::span<const float> far,
                             std::span<const float> near) {
  const auto intervals = static_cast<std::size_t>(config_.intervals_per_day);
  const auto summarize_row = [&](std::size_t row) {
    return Summarize(std::span(far_).subspan(row, intervals),
                     std::span(near_).subspan(row, intervals));
  };
  bool min_dirty = false;
  if (days_ == config_.window_days) {
    // Evict the oldest day; the new day takes over its slot.
    const std::size_t row = RowStart(0);
    for (std::size_t s = 0; s < intervals; ++s) counts_[s] -= flags_[row + s];
    const BinSummary old = summarize_row(row);
    defined_ -= old.far_defined;
    min_dirty = old.far_min <= far_min_ || old.near_min <= near_min_;
    head_ = (head_ + 1) % config_.window_days;
    --days_;
  }

  const std::size_t row = RowStart(days_);
  ++days_;
  std::copy_n(far.begin(), intervals, &far_[row]);
  std::copy_n(near.begin(), intervals, &near_[row]);
  const BinSummary day = summarize_row(row);
  defined_ += day.far_defined;
  if (min_dirty) {
    // The evicted day held a window minimum: rescan the ring, new day
    // included. A tie held by another day leaves every flag as it is.
    const BinSummary ring = Summarize(far_, near_);
    min_dirty = ring.far_min != far_min_ || ring.near_min != near_min_;
    far_min_ = ring.far_min;
    near_min_ = ring.near_min;
  } else if (day.far_min < far_min_ || day.near_min < near_min_) {
    far_min_ = std::min(far_min_, static_cast<double>(day.far_min));
    near_min_ = std::min(near_min_, static_cast<double>(day.near_min));
    min_dirty = true;
  }

  if (!min_dirty) {
    ComputeDayFlags(row);
    return;
  }
  // Unfilled slots hold NaN, so reflagging the whole ring flags only held days.
  std::fill(counts_.begin(), counts_.end(), 0);
  for (std::size_t slot = 0; slot < far_.size(); slot += intervals) {
    ComputeDayFlags(slot);
  }
}
// manic-lint: hot-path(end)

DayClassification RollingAutocorr::Classify() const {
  DayClassification cls;
  if (days_ == 0) return cls;

  // Usable-data guard mirroring the batch implementation.
  const std::size_t total = static_cast<std::size_t>(days_) *
                            static_cast<std::size_t>(config_.intervals_per_day);
  cls.threshold_ms = far_min_ + config_.elevation_ms;
  if (defined_ < total / 4) {
    cls.reject = RejectReason::kInsufficientData;
    return cls;
  }

  const auto det = detail::DetectRecurringWindow(
      counts_, days_,
      [&](int d, int s) {
        return flags_[RowStart(d) + static_cast<std::size_t>(s)] != 0;
      },
      config_);
  cls.reject = det.reject;
  cls.recurring = det.recurring;
  cls.window_start = det.window_start;
  cls.window_len = det.window_len;
  if (!det.recurring) return cls;

  const std::size_t today = RowStart(days_ - 1);
  for (int k = 0; k < det.window_len; ++k) {
    const int s = (det.window_start + k) % config_.intervals_per_day;
    if (flags_[today + static_cast<std::size_t>(s)] != 0) {
      cls.congested_intervals.push_back(s);
    }
  }
  cls.congested = !cls.congested_intervals.empty();
  cls.fraction = static_cast<double>(cls.congested_intervals.size()) /
                 config_.intervals_per_day;
  return cls;
}

AutocorrResult RollingAutocorr::AnalyzeBatch() const {
  DayGrid far(days_, config_.intervals_per_day);
  DayGrid near(days_, config_.intervals_per_day);
  for (int d = 0; d < days_; ++d) {
    for (int s = 0; s < config_.intervals_per_day; ++s) {
      const std::size_t b = RowStart(d) + static_cast<std::size_t>(s);
      far.Set(d, s, far_[b]);
      near.Set(d, s, near_[b]);
    }
  }
  return AnalyzeWindow(far, near, config_);
}

}  // namespace manic::infer
