// The deterministic fork/join skeleton of the parallel study engine. A study
// is cut into shards keyed by stable identifiers ((link, month-chunk) in
// the longitudinal driver); each shard's `work` writes only to buffers it
// owns and runs on a pool worker or on the calling thread, whichever claims
// it first, and each shard's `merge` runs on the calling thread in
// ascending key order as soon as that shard's work is done. Because the
// merge order is a pure function of the keys — never of scheduling — the
// folded result is bit-identical run-to-run and thread-count-to-thread-count,
// floating-point accumulation order included.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/checkpoint.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"

namespace manic::runtime {

// Knobs for parallel study execution, carried inside scenario::StudyOptions.
struct RuntimeOptions {
  // 1 = no pool: every shard and the truth phase run on the calling
  // thread; 0 = hardware_concurrency; N >= 2 = a pool of N workers, with
  // the calling thread joining in while it waits (N + 1 threads at most).
  // Every value produces bit-identical output.
  int threads = 1;
  // Shard granularity: 0 = one shard per link, holding all of the link's
  // (VP, link) pairs, spanning the whole study window; N > 0 = additionally
  // split each link into N-month chunks (finer load balancing, ~window/30
  // days of warmup replay per extra chunk).
  int months_per_shard = 0;
  // Optional observability sink (counters + per-phase timing); must outlive
  // the study run. Null = metrics are discarded.
  Metrics* metrics = nullptr;

  int ResolvedThreads() const noexcept {
    return threads > 0 ? threads : ThreadPool::HardwareThreads();
  }

  // Reads MANIC_THREADS (default `default_threads`) and
  // MANIC_MONTHS_PER_SHARD (default 0) — the bench/example entry points'
  // configuration surface.
  static RuntimeOptions FromEnv(int default_threads = 0);
};

class StudyExecutor {
 public:
  struct Shard {
    std::uint64_t key = 0;  // stable identity; also the canonical merge rank
    std::function<void()> work;   // any thread; owns its output buffer
    std::function<void()> merge;  // calling thread; folds the buffer in
    // Checkpoint seam (both or neither): `save` serializes the work buffer
    // after the work; `restore` repopulates it from a saved blob so
    // the work can be skipped, returning false to reject the blob (format
    // drift) and recompute.
    std::function<std::string()> save;
    std::function<bool(const std::string&)> restore;
  };

  // The executor borrows the pool; a null pool runs every work on the
  // calling thread. `metrics` (optional) counts shards.
  explicit StudyExecutor(ThreadPool* pool, Metrics* metrics = nullptr)
      : pool_(pool), metrics_(metrics) {}

  // Runs every shard's work and merges the shards in ascending
  // (key, insertion-index) order, each as soon as its work is done. With a
  // pool, one task per shard is submitted, and the calling thread walks the
  // shards in key order: it runs the next shard itself if no worker has
  // claimed it, else the highest-keyed shard still unclaimed, and sleeps
  // only when every shard left is already running. A wedged pool therefore
  // cannot strand a queued shard. With no pool, every work runs on the
  // calling thread in key order just before its merge.
  // `progress(done, total)` fires from the calling thread after each merge.
  //
  // With a CheckpointLog, shards whose key has a saved blob restore it and
  // skip the work phase; every other shard is recorded (in canonical merge
  // order) as it merges, so a killed study keeps every shard merged before
  // the kill, at any thread count, and a resumed run's final fold is
  // byte-identical to an uninterrupted one.
  //
  // If a merge, save or progress callback throws, shards no thread has
  // claimed are dropped and running works are waited out before the
  // exception propagates. The executor must not be called from a task of
  // its own pool.
  void Execute(std::vector<Shard> shards,
               const std::function<void(std::size_t, std::size_t)>& progress =
                   {},
               CheckpointLog* checkpoint = nullptr);

 private:
  ThreadPool* pool_ = nullptr;
  Metrics* metrics_ = nullptr;
};

}  // namespace manic::runtime
