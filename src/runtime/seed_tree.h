// Deterministic seed derivation for sharded execution. Every shard derives
// its noise seeds from the study's root seed plus *stable* keys (VP id, link
// id, month index, a purpose tag) — never a thread id, shard-completion
// order, or anything the scheduler influences — so a study partitioned any
// way across any number of threads consumes exactly the same random streams
// as an unpartitioned run.
//
// Derivation is SplitMix64-based (stats::Rng::HashMix): Leaf(a, b) on a tree
// rooted at `seed` equals HashMix(seed, a, b), which keeps the historical
// noise keys of the study driver (HashMix(options.seed, vp, link)) stable
// under this scheme.
#pragma once

#include <cstdint>
#include <string_view>

#include "stats/rng.h"

namespace manic::runtime {

class SeedTree {
 public:
  explicit constexpr SeedTree(std::uint64_t seed) noexcept : seed_(seed) {}

  constexpr std::uint64_t seed() const noexcept { return seed_; }

  // Child subtree for a stable key. Child(k) != Leaf(k): children are salted
  // so that descending and drawing never collide.
  SeedTree Child(std::uint64_t key) const noexcept {
    return SeedTree(stats::Rng::HashMix(seed_, key, kChildSalt));
  }
  // Named child (key hashed from the bytes of `name`), for purpose tags like
  // Child("tslp") vs Child("churn").
  SeedTree Child(std::string_view name) const noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the tag bytes
    for (const char c : name) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    return Child(h);
  }

  // Leaf draw: 64 uniform bits for up to two stable keys. Identical to
  // stats::Rng::HashMix(seed(), a, b) by contract (tested).
  std::uint64_t Leaf(std::uint64_t a, std::uint64_t b = 0) const noexcept {
    return stats::Rng::HashMix(seed_, a, b);
  }
  // Leaf mapped to [0, 1).
  double LeafUnit(std::uint64_t a, std::uint64_t b = 0) const noexcept {
    return stats::Rng::HashToUnit(seed_, a, b);
  }
  // A sequential generator seeded at a leaf, for shards that need a stream.
  stats::Rng LeafRng(std::uint64_t a, std::uint64_t b = 0) const noexcept {
    return stats::Rng(Leaf(a, b));
  }

 private:
  static constexpr std::uint64_t kChildSalt = 0x9e6b5e1fc4d21a87ULL;

  std::uint64_t seed_ = 0;
};

}  // namespace manic::runtime
