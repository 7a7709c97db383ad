// The seeded measurement stream the serve workloads submit: for every
// (day, link) one batch holding both VPs' 96 fifteen-minute bins, far and
// near side. About 2% of bins are probed-but-missing; exactly half of the
// links (chosen by the seed) queue for a few evening hours every day, with
// a per-link onset and height drawn from the seed. The stream is a pure
// function of (seed, shape), so a run regenerates any day on demand instead
// of holding the whole stream in memory.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/sample.h"

namespace perfbench {

struct StreamShape {
  int links = 64;
  int vps = 2;
  int days = 160;
  int bins_per_day = 96;  // infer::AutocorrConfig's default binning
  int window_days = 50;   // infer::AutocorrConfig's default window
};

class Stream {
 public:
  Stream(std::uint64_t seed, StreamShape shape);

  const StreamShape& shape() const { return shape_; }
  // Link ids are 1..links.
  std::uint64_t samples_per_batch() const {
    return 2ull * static_cast<std::uint64_t>(shape_.vps * shape_.bins_per_day);
  }
  // Replaces *out with the batch of (day, link).
  void Batch(std::int64_t day, int link, std::vector<manic::serve::Sample>* out) const;

 private:
  std::uint64_t seed_;
  StreamShape shape_;
  std::vector<bool> congested_;  // by link id
};

}  // namespace perfbench
