// One row of the daemon's verdict log: the merged congestion verdict for a
// link on a closed day, one infer::LinkDayFold over its VPs — the live
// counterpart of one batch DayLinkRecord, plus the link's DataQuality
// grade. FormatVerdictLine is the canonical text encoding:
// the replay-determinism gate byte-diffs whole logs, so the formatting is
// fixed-precision and locale-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "topo/topology.h"

namespace manic::serve {

struct VerdictRecord {
  std::int64_t day = 0;  // epoch day (closed)
  topo::LinkId link = 0;
  bool recurring = false;   // asserting > 0
  bool congested = false;   // LinkDayFold::Congested()
  bool quality_ok = false;  // link DataQuality acceptable as of this day
  double fraction = 0.0;    // LinkDayFold::Fraction()
  std::uint32_t contributors = 0;  // VP states with a full window this day
  std::uint32_t asserting = 0;     // of those, VPs asserting recurrence
  double far_coverage_frac = 0.0;  // link far-side coverage as of this day

  friend bool operator==(const VerdictRecord&, const VerdictRecord&) = default;
};
// Wire pin: codec.cc encodes a VerdictRecord as 37 bytes, day:8 link:4
// flags:1 (recurring|congested|quality_ok) fraction:8 contributors:4
// asserting:4 far_coverage_frac:8, in declaration order.
static_assert([] {
  [[maybe_unused]] auto [day, link, recurring, congested, quality_ok,
                         fraction, contributors, asserting,
                         far_coverage_frac] = VerdictRecord{};
  return true;
}());
static_assert(
    sizeof(VerdictRecord) == 40 && offsetof(VerdictRecord, day) == 0 &&
        sizeof(VerdictRecord::day) == 8 &&
        offsetof(VerdictRecord, link) == 8 &&
        sizeof(VerdictRecord::link) == 4 &&
        offsetof(VerdictRecord, recurring) == 12 &&
        offsetof(VerdictRecord, congested) == 13 &&
        offsetof(VerdictRecord, quality_ok) == 14 &&
        offsetof(VerdictRecord, fraction) == 16 &&
        sizeof(VerdictRecord::fraction) == 8 &&
        offsetof(VerdictRecord, contributors) == 24 &&
        sizeof(VerdictRecord::contributors) == 4 &&
        offsetof(VerdictRecord, asserting) == 28 &&
        sizeof(VerdictRecord::asserting) == 4 &&
        offsetof(VerdictRecord, far_coverage_frac) == 32 &&
        sizeof(VerdictRecord::far_coverage_frac) == 8,
    "serve::VerdictRecord drifted from its 40-byte wire-pinned layout");

// Canonical single-line text form (newline-terminated), deterministic down
// to the byte for identical records.
std::string FormatVerdictLine(const VerdictRecord& v);

}  // namespace manic::serve
