// Traffic demand on interdomain links: a diurnal shape scaled by a per-link
// schedule of "congestion regimes". A regime says "between study days
// [start, end) this link's peak-hour utilization target is X" — X > 1 means
// demand exceeds capacity at the daily peak, producing the standing queue
// and loss the TSLP method detects. Regime schedules are how scenarios
// script the rise/dissipation patterns of §6.2 (e.g. Comcast-Google
// congestion dissipating in July 2017).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "stats/calendar.h"

namespace manic::sim {

// Simulated time flows through every sim interface; re-exported here so the
// measurement stack can keep writing sim::TimeSec.
using stats::TimeSec;

// The demand model's noise slot, which is also the TSLP probing round: a
// utilization evaluated on this grid can be read from a DiurnalTable.
inline constexpr TimeSec kSlotSec = 5 * stats::kSecPerMin;
inline constexpr int kSlotsPerDay =
    static_cast<int>(stats::kSecPerDay / kSlotSec);

// Smooth diurnal shape in (0, 1]: ~base overnight, 1.0 at the evening peak.
struct DiurnalShape {
  double trough = 0.45;        // overnight fraction of peak demand
  double peak_hour = 20.5;     // local-time center of the evening peak
  double peak_width_h = 2.6;   // Gaussian sigma (hours)
  double morning_bump = 0.12;  // small secondary bump near 10:00
  double weekend_peak_shift_h = -0.7;  // weekend peak slightly earlier
  double weekend_scale = 0.97;         // weekend amplitude factor

  // Shape value for a local fractional hour; wraps around midnight.
  double At(double local_hour, bool weekend) const noexcept;
};

// DiurnalShape::At at every local 5-minute slot of a weekday and of a
// weekend day, bit for bit, so a day of slots costs table reads instead of
// two exp() each. It is 4.5 KiB: build one per link where a loop walks that
// link's days, never one per link of the topology.
class DiurnalTable {
 public:
  explicit DiurnalTable(const DiurnalShape& shape) noexcept;

  double At(int local_slot, bool weekend) const noexcept {
    return value_[static_cast<std::size_t>(weekend ? kSlotsPerDay : 0) +
                  static_cast<std::size_t>(local_slot)];
  }

 private:
  std::array<double, 2 * kSlotsPerDay> value_{};
};

// One scheduled demand regime for a link.
struct DemandRegime {
  std::int64_t start_day = 0;  // inclusive, epoch days
  std::int64_t end_day = 0;    // exclusive
  double peak_utilization = 0.6;  // demand/capacity at the diurnal peak
  // Optional linear ramp: utilization target interpolates from
  // `peak_utilization` at start_day to `peak_utilization_end` at end_day.
  double peak_utilization_end = -1.0;  // <0 disables the ramp
};

// Demand model for one link.
struct LinkDemand {
  DiurnalShape shape;
  double default_peak_utilization = 0.6;  // outside any regime
  std::vector<DemandRegime> regimes;      // evaluated in order; last match wins
  double noise_sigma = 0.03;              // multiplicative lognormal-ish noise
  std::uint64_t noise_seed = 0;           // per-link noise stream

  // Peak-utilization target effective on `day` (no noise).
  double PeakTarget(std::int64_t day) const noexcept;

  // Deterministic (noise-free) utilization at time t.
  double MeanUtilization(TimeSec t, int utc_offset_hours) const noexcept;

  // Utilization with reproducible per-5-minute noise.
  double Utilization(TimeSec t, int utc_offset_hours) const noexcept;

  // The day-granular forms: out[i] is MeanUtilization / Utilization at
  // StartOfDay(day) + i * kSlotSec, bit for bit, for every slot of the UTC
  // day. `table` must be built from `shape`.
  void MeanDayUtilization(std::int64_t day, int utc_offset_hours,
                          const DiurnalTable& table,
                          std::span<double, kSlotsPerDay> out) const noexcept;
  void DayUtilization(std::int64_t day, int utc_offset_hours,
                      const DiurnalTable& table,
                      std::span<double, kSlotsPerDay> out) const noexcept;
};

}  // namespace manic::sim
