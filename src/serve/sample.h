// The unit of ingest for the serving plane: one measurement observation as
// a compact POD record. A measurement shard (a TSLP/loss collector standing
// at one vantage point) streams these into the daemon; the engine folds
// RTT kinds into 15-minute minimum bins, missing markers keep the
// probed-but-unanswered bookkeeping the DataQuality grade needs
// (tsdb::Database::WriteMissing semantics), and loss-rate samples are
// retained in the raw store only.
#pragma once

#include <cstddef>
#include <cstdint>

#include "stats/timeseries.h"
#include "topo/topology.h"

namespace manic::serve {

using stats::TimeSec;

enum class SampleKind : std::uint8_t {
  kFarRtt = 0,       // far-side TSLP RTT, value in milliseconds
  kNearRtt = 1,      // near-side TSLP RTT, value in milliseconds
  kFarMissing = 2,   // far slot probed, nothing came back (value unused)
  kNearMissing = 3,  // near slot probed, nothing came back (value unused)
  kLossRate = 4,     // loss-probe rate, value as a fraction in [0, 1]
};
inline constexpr std::uint8_t kMaxSampleKind =
    static_cast<std::uint8_t>(SampleKind::kLossRate);

struct Sample {
  TimeSec t = 0;  // observation time, seconds since the study epoch
  topo::LinkId link = 0;
  topo::VpId vp = 0;
  SampleKind kind = SampleKind::kFarRtt;
  float value = 0.0f;  // unit depends on kind (see SampleKind)
};
// Wire pin: codec.cc encodes a Sample as 21 bytes, t:8 link:4 vp:4 kind:1
// value:4, in declaration order. A new field fails the binding below even
// when it fits in padding; encode it, bump the protocol, then re-pin.
static_assert([] {
  [[maybe_unused]] auto [t, link, vp, kind, value] = Sample{};
  return true;
}());
static_assert(sizeof(Sample) == 24 &&
                  offsetof(Sample, t) == 0 && sizeof(Sample::t) == 8 &&
                  offsetof(Sample, link) == 8 && sizeof(Sample::link) == 4 &&
                  offsetof(Sample, vp) == 12 && sizeof(Sample::vp) == 4 &&
                  offsetof(Sample, kind) == 16 && sizeof(Sample::kind) == 1 &&
                  offsetof(Sample, value) == 20 && sizeof(Sample::value) == 4,
              "serve::Sample drifted from its 24-byte wire-pinned layout");

}  // namespace manic::serve
