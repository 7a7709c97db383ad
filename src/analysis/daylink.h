// Day-link bookkeeping for the longitudinal study (§6): every (link, day)
// classified by the autocorrelation method becomes a record; aggregations
// produce Table 3 (per access ISP), Table 4 (AP x T&CP percentages), Fig 7
// (monthly congested-day-link percentages), Fig 8 (mean day-link congestion),
// and Fig 9 (time-of-day histograms of congested 15-minute intervals).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "infer/autocorr.h"
#include "topo/as_registry.h"

namespace manic::analysis {

using topo::Asn;

// The day-link reporting threshold lives beside the multi-VP fold.
using infer::kDayLinkThreshold;

struct DayLinkRecord {
  std::int64_t day = 0;      // epoch day
  std::uint64_t link_key = 0;  // unique link id (e.g. far address value)
  Asn access = 0;            // access provider
  Asn tcp = 0;               // transit / content provider
  double fraction = 0.0;     // day-link congestion percentage (0..1)
  bool observed = true;      // link visible that day
};

class DayLinkTable {
 public:
  void Add(const DayLinkRecord& record);

  struct PairStats {
    std::int64_t observed_day_links = 0;
    std::int64_t congested_day_links = 0;  // fraction >= 4%
    double PercentCongested() const noexcept {
      return observed_day_links == 0
                 ? 0.0
                 : 100.0 * static_cast<double>(congested_day_links) /
                       static_cast<double>(observed_day_links);
    }
  };

  // ---- Table 3 -------------------------------------------------------------
  struct AccessSummary {
    Asn access = 0;
    int observed_tcps = 0;   // distinct T&CPs observed
    int congested_tcps = 0;  // T&CPs with a non-trivial share (>= 1%) of
                             // congested day-links
    double pct_congested_day_links = 0.0;
  };
  std::vector<AccessSummary> Table3() const;

  // ---- Table 4 -------------------------------------------------------------
  // % congested day-links per (access, tcp). Missing pair => no observations.
  const std::map<std::pair<Asn, Asn>, PairStats>& Pairs() const noexcept {
    return pairs_;
  }
  // T&CPs ranked by average % congested day-links across their connected
  // access networks (the paper's Table 4 row ordering), top `n`.
  std::vector<Asn> TopCongestedTcps(std::size_t n) const;

  // ---- Fig 7 ---------------------------------------------------------------
  // Monthly % of congested day-links for one (access, tcp); index = study
  // month. Months without observations are -1.
  std::vector<double> MonthlyCongestedPct(Asn access, Asn tcp) const;

  // ---- Fig 8 ---------------------------------------------------------------
  // Mean day-link congestion % per month over day-links where any congestion
  // was detected (fraction > 0), for one (access, tcp). -1 = no data.
  std::vector<double> MonthlyMeanCongestion(Asn access, Asn tcp) const;

  std::int64_t TotalRecords() const noexcept { return total_records_; }
  std::set<Asn> AccessNetworks() const;
  std::set<Asn> TcpsOf(Asn access) const;

 private:
  struct MonthAgg {
    std::int64_t observed = 0;
    std::int64_t congested = 0;
    double fraction_sum = 0.0;   // over day-links with fraction > 0
    std::int64_t fraction_n = 0;
  };
  std::map<std::pair<Asn, Asn>, PairStats> pairs_;
  std::map<std::pair<Asn, Asn>, std::vector<MonthAgg>> monthly_;
  std::int64_t total_records_ = 0;
};

// ---- Fig 9 -----------------------------------------------------------------
// Histogram over hour-of-day (local time) of congested 15-minute intervals.
class TimeOfDayHistogram {
 public:
  // Adds one congested 15-minute interval at local fractional-hour `h`.
  void Add(double local_hour, bool weekend);
  // Folds another histogram in (counts add); used by the parallel study
  // engine to combine per-shard histograms.
  void Merge(const TimeOfDayHistogram& other);
  // Fraction of weekday (or weekend) congested intervals per hourly bin.
  std::vector<double> Normalized(bool weekend) const;
  int ModeHour(bool weekend) const;
  std::int64_t Total(bool weekend) const noexcept {
    return weekend ? weekend_total_ : weekday_total_;
  }
  // Raw bin access for checkpoint serialization (hour in [0, 24)). AddCount
  // folds `n` intervals into one bin and the matching total, so a histogram
  // rebuilt bin-by-bin from Count() is identical to the original.
  std::int64_t Count(int hour, bool weekend) const noexcept {
    return weekend ? weekend_[static_cast<std::size_t>(hour)]
                   : weekday_[static_cast<std::size_t>(hour)];
  }
  void AddCount(int hour, bool weekend, std::int64_t n) noexcept {
    if (weekend) {
      weekend_[static_cast<std::size_t>(hour)] += n;
      weekend_total_ += n;
    } else {
      weekday_[static_cast<std::size_t>(hour)] += n;
      weekday_total_ += n;
    }
  }
  // Fraction of (weekday) congested intervals inside the FCC peak window,
  // 19:00-23:00 local.
  double FccPeakShare(bool weekend) const;

 private:
  std::array<std::int64_t, 24> weekday_{};
  std::array<std::int64_t, 24> weekend_{};
  std::int64_t weekday_total_ = 0;
  std::int64_t weekend_total_ = 0;
};

}  // namespace manic::analysis
