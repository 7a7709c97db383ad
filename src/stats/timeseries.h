// A simple time series: (unix-seconds, value) points in non-decreasing time
// order. Both congestion-inference methods operate on *minimum-per-bin*
// aggregations of raw TSLP series (§4.1, §4.2), so binning with a selectable
// aggregator is the workhorse here.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace manic::stats {

using TimeSec = std::int64_t;

struct Point {
  TimeSec t = 0;
  double value = 0.0;
  friend bool operator==(const Point&, const Point&) = default;
};
// One per retained raw point: at 1e8 points every byte is ~100 MB resident.
static_assert(sizeof(Point) <= 16, "stats::Point is over its 16-byte budget");

enum class BinAgg { kMin, kMax, kMean, kCount, kSum };

class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(std::vector<Point> points);

  // Appends a point; time must be >= the last appended time.
  void Append(TimeSec t, double value);

  std::size_t size() const noexcept { return points_.size(); }
  bool empty() const noexcept { return points_.empty(); }
  const Point& operator[](std::size_t i) const noexcept { return points_[i]; }
  std::span<const Point> points() const noexcept { return points_; }
  const Point& front() const noexcept { return points_.front(); }
  const Point& back() const noexcept { return points_.back(); }

  // All values, in time order.
  std::vector<double> Values() const;

  // Points with t in [t0, t1).
  TimeSeries Slice(TimeSec t0, TimeSec t1) const;

  // Index of the first point with t >= t0 (== size() if none).
  std::size_t LowerBound(TimeSec t0) const noexcept;

  // Aggregates points into fixed-width bins aligned to `origin`
  // (bin k covers [origin + k*width, origin + (k+1)*width)). Bins with no
  // points are omitted. The returned series timestamps each bin at its start.
  TimeSeries Bin(TimeSec width, BinAgg agg, TimeSec origin = 0) const;

  // Like Bin, but produces a dense vector over [t0, t1): one slot per bin,
  // nullopt where the bin is empty. Used by the autocorrelation method,
  // which needs positional (interval-of-day) alignment.
  std::vector<std::optional<double>> BinDense(TimeSec t0, TimeSec t1,
                                              TimeSec width, BinAgg agg) const;

  void Clear() noexcept { points_.clear(); }

 private:
  std::vector<Point> points_;
};

}  // namespace manic::stats
