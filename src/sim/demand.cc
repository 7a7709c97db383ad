#include "sim/demand.h"

#include <algorithm>
#include <cmath>

#include "stats/rng.h"

namespace manic::sim {

using stats::DayOf;
using stats::IsWeekend;
using stats::kSecPerHour;
using stats::LocalHour;
using stats::LocalWeekday;
using stats::SecondOfDayUtc;
using stats::StartOfDay;

namespace {

double Gaussian(double x, double mu, double sigma) noexcept {
  // Wrap-around distance on the 24h circle.
  double d = std::fabs(x - mu);
  d = std::min(d, 24.0 - d);
  return std::exp(-d * d / (2.0 * sigma * sigma));
}

// A noise-free utilization with the demand's noise for 5-minute slot `slot`.
double WithNoise(const LinkDemand& demand, double mean,
                 std::uint64_t slot) noexcept {
  if (demand.noise_sigma <= 0.0) return mean;
  // Reproducible noise keyed by (link seed, 5-minute slot): two independent
  // uniform draws approximate a normal via sum-of-uniforms; cheap and smooth
  // enough for multiplicative load noise.
  const double u1 = stats::Rng::HashToUnit(demand.noise_seed, slot, 0x51);
  const double u2 = stats::Rng::HashToUnit(demand.noise_seed, slot, 0x52);
  const double gauss = (u1 + u2 - 1.0) * 1.732;  // ~N(0,0.5) -> scaled below
  return std::max(0.0, mean * (1.0 + demand.noise_sigma * gauss * 1.414));
}

}  // namespace

double DiurnalShape::At(double local_hour, bool weekend) const noexcept {
  const double peak = weekend ? peak_hour + weekend_peak_shift_h : peak_hour;
  double s = trough;
  s += (1.0 - trough) * Gaussian(local_hour, peak, peak_width_h);
  s += morning_bump * Gaussian(local_hour, 10.0, 2.0);
  if (weekend) s *= weekend_scale;
  return std::clamp(s, 0.01, 1.05);
}

DiurnalTable::DiurnalTable(const DiurnalShape& shape) noexcept {
  for (const bool weekend : {false, true}) {
    for (int slot = 0; slot < kSlotsPerDay; ++slot) {
      // The local hour exactly as LocalHour computes it for this slot.
      const double hour = static_cast<double>(slot * kSlotSec) /
                          static_cast<double>(kSecPerHour);
      value_[static_cast<std::size_t>(weekend ? kSlotsPerDay : 0) +
             static_cast<std::size_t>(slot)] = shape.At(hour, weekend);
    }
  }
}

double LinkDemand::PeakTarget(std::int64_t day) const noexcept {
  double target = default_peak_utilization;
  for (const DemandRegime& r : regimes) {
    if (day >= r.start_day && day < r.end_day) {
      if (r.peak_utilization_end >= 0.0 && r.end_day > r.start_day) {
        const double frac = static_cast<double>(day - r.start_day) /
                            static_cast<double>(r.end_day - r.start_day);
        target = r.peak_utilization +
                 frac * (r.peak_utilization_end - r.peak_utilization);
      } else {
        target = r.peak_utilization;
      }
    }
  }
  return target;
}

double LinkDemand::MeanUtilization(TimeSec t,
                                   int utc_offset_hours) const noexcept {
  const std::int64_t day = DayOf(t);
  const double hour = LocalHour(t, utc_offset_hours);
  const bool weekend = IsWeekend(LocalWeekday(t, utc_offset_hours));
  return PeakTarget(day) * shape.At(hour, weekend);
}

double LinkDemand::Utilization(TimeSec t, int utc_offset_hours) const noexcept {
  return WithNoise(*this, MeanUtilization(t, utc_offset_hours),
                   static_cast<std::uint64_t>(t / kSlotSec));
}

void LinkDemand::MeanDayUtilization(std::int64_t day, int utc_offset_hours,
                                    const DiurnalTable& table,
                                    std::span<double, kSlotsPerDay> out)
    const noexcept {
  const TimeSec day_start = StartOfDay(day);
  const TimeSec offset = static_cast<TimeSec>(utc_offset_hours) * kSecPerHour;
  const double target = PeakTarget(day);
  // Walk the local slots from the one holding the UTC midnight; the local
  // weekday changes, and is looked up again, only at local midnight.
  int local = static_cast<int>(SecondOfDayUtc(day_start + offset) / kSlotSec);
  bool weekend = IsWeekend(LocalWeekday(day_start, utc_offset_hours));
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = target * table.At(local, weekend);
    if (++local == kSlotsPerDay) {
      local = 0;
      weekend = IsWeekend(LocalWeekday(
          day_start + static_cast<TimeSec>(i + 1) * kSlotSec, utc_offset_hours));
    }
  }
}

void LinkDemand::DayUtilization(std::int64_t day, int utc_offset_hours,
                                const DiurnalTable& table,
                                std::span<double, kSlotsPerDay> out)
    const noexcept {
  MeanDayUtilization(day, utc_offset_hours, table, out);
  if (noise_sigma <= 0.0) return;
  const std::int64_t first_slot = StartOfDay(day) / kSlotSec;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = WithNoise(*this, out[i],
                       static_cast<std::uint64_t>(
                           first_slot + static_cast<std::int64_t>(i)));
  }
}

}  // namespace manic::sim
