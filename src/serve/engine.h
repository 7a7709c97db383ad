// Per-shard inference engine: the live counterpart of the batch study
// driver's daily loop. Every (link, VP) pair owns an infer::StreamingClassifier
// whose open-day bins fill one sample at a time; when the service closes a
// day, the engine finalizes each pair, folds the link's VPs with
// infer::LinkDayFold as the batch study does, and grades the link's
// DataQuality as of that day. Links are partitioned across shards by
// the service, so one engine always sees every VP of the links it owns —
// the merge never crosses a shard boundary.
//
// Determinism contract: both maps are ordered, so iteration (and therefore
// the floating-point summation order of per-VP fractions) is ascending
// (link, vp) — the same order as the batch driver's pair list, which the
// topology builder emits in ascending VP order.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "infer/autocorr.h"
#include "infer/data_quality.h"
#include "infer/streaming.h"
#include "serve/sample.h"
#include "serve/verdict.h"

namespace manic::serve {

struct EngineConfig {
  infer::AutocorrConfig autocorr;
};

class ShardEngine {
 public:
  explicit ShardEngine(EngineConfig config = {});

  // O(1): routes one sample into its pair's open-day bins. Loss-rate
  // samples are counted but do not feed inference (they live in the raw
  // store only); RTT and missing-marker kinds land in minimum bins.
  void Ingest(const Sample& s);

  // Finalizes `day` for every pair and returns the merged per-link verdicts
  // in ascending link order. Days must be closed in ascending order; pairs
  // that saw no record for the day are skipped (invisible, exactly like a
  // batch pair outside its visibility window).
  std::vector<VerdictRecord> CloseDay(std::int64_t day);

  // Per-link DataQuality as of `total_days` study days, folded across the
  // VPs that measured the link (pairs that never saw a bin are skipped).
  std::map<topo::LinkId, infer::DataQuality> QualitySnapshot(
      int total_days) const;

  std::uint64_t samples_ingested() const noexcept { return samples_; }
  // Samples dropped because their day was already closed (a closed day can
  // never be finalized again, so binning them would only leak open-day
  // state). The service filters these upstream; this is the engine's own
  // guard for direct users.
  std::uint64_t late_samples() const noexcept { return late_; }
  std::size_t links_tracked() const noexcept { return links_.size(); }

 private:
  EngineConfig config_;
  std::map<topo::LinkId, std::map<topo::VpId, infer::StreamingClassifier>>
      links_;
  std::uint64_t samples_ = 0;
  std::uint64_t late_ = 0;
  bool has_closed_ = false;
  std::int64_t closed_through_ = 0;
};

}  // namespace manic::serve
