#include "stream.h"

#include <algorithm>
#include <numeric>

#include "stats/calendar.h"
#include "stats/rng.h"

namespace perfbench {

using manic::serve::Sample;
using manic::serve::SampleKind;
using manic::stats::Rng;

Stream::Stream(std::uint64_t seed, StreamShape shape)
    : seed_(seed), shape_(shape), congested_(shape.links + 1, false) {
  // Exactly half of the links congest: the first half of a seeded shuffle.
  std::vector<int> order(static_cast<std::size_t>(shape.links));
  std::iota(order.begin(), order.end(), 1);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return Rng::HashMix(seed_, static_cast<std::uint64_t>(a), 11) <
           Rng::HashMix(seed_, static_cast<std::uint64_t>(b), 11);
  });
  for (int i = 0; i < shape.links / 2; ++i) {
    congested_[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] =
        true;
  }
}

void Stream::Batch(std::int64_t day, int link, std::vector<Sample>* out) const {
  out->clear();
  const auto l = static_cast<std::uint64_t>(link);
  const std::int64_t bin_width = manic::stats::kSecPerDay / shape_.bins_per_day;
  const bool congested = congested_[static_cast<std::size_t>(link)];
  // Evening peak: starts between 18:00 and 20:00 and lasts three hours.
  const int peak_start =
      shape_.bins_per_day * 18 / 24 +
      static_cast<int>(Rng::HashMix(seed_, l, 12) %
                       static_cast<std::uint64_t>(shape_.bins_per_day / 12 + 1));
  const int peak_end = peak_start + shape_.bins_per_day / 8;
  const double peak_ms = 15.0 + 15.0 * Rng::HashToUnit(seed_, l, 13);
  const double base_ms = 8.0 + 20.0 * Rng::HashToUnit(seed_, l, 14);
  for (int vp = 1; vp <= shape_.vps; ++vp) {
    const auto v = static_cast<manic::topo::VpId>(vp);
    const std::uint64_t pair = l * 131 + static_cast<std::uint64_t>(vp);
    for (int s = 0; s < shape_.bins_per_day; ++s) {
      const manic::serve::TimeSec t =
          day * manic::stats::kSecPerDay + s * bin_width + bin_width / 2;
      const std::uint64_t key =
          static_cast<std::uint64_t>(day) * 1000 + static_cast<std::uint64_t>(s);
      const auto id = static_cast<manic::topo::LinkId>(link);
      if (Rng::HashToUnit(seed_ ^ pair, key, 15) < 0.02) {
        out->push_back({t, id, v, SampleKind::kFarMissing, 0.0f});
        out->push_back({t, id, v, SampleKind::kNearMissing, 0.0f});
        continue;
      }
      const double jitter = Rng::HashToUnit(seed_ ^ pair, key, 16);
      const bool peak = congested && s >= peak_start && s < peak_end;
      out->push_back({t, id, v, SampleKind::kFarRtt,
                      static_cast<float>(base_ms + jitter + (peak ? peak_ms : 0.0))});
      out->push_back({t, id, v, SampleKind::kNearRtt,
                      static_cast<float>(0.5 * base_ms + 0.5 * jitter)});
    }
  }
}

}  // namespace perfbench
