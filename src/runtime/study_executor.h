// The deterministic fork/join skeleton of the parallel study engine. A study
// is cut into shards keyed by stable identifiers ((link, month-chunk) in
// the longitudinal driver); every shard's `work` runs concurrently on the
// pool and writes only to buffers it owns, then every shard's `merge` runs
// on the calling thread in ascending key order. With no pool, each work
// runs on the calling thread just before its own merge. Because the merge
// order is a pure function of the keys — never of scheduling — the folded
// result is bit-identical run-to-run and thread-count-to-thread-count,
// floating-point accumulation order included.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/checkpoint.h"
#include "runtime/metrics.h"
#include "runtime/thread_annotations.h"
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

// Stall watchdog for the parallel phase. When stall_timeout_s elapses and
// unfinished shards remain, shards still *queued* are reclaimed from the
// pool and executed on the calling thread (a wedged pool cannot strand
// them); shards already *running* cannot be preempted and are only
// reported. `on_stall(requeued, stuck)` fires once, at reclaim time.
// Because shard works own isolated buffers and merges replay in key order,
// where a shard ran never shows in the output.
struct WatchdogOptions {
  double stall_timeout_s = 0.0;  // 0: watchdog disabled
  double poll_interval_s = 0.5;
  std::function<void(std::size_t requeued, std::size_t stuck)> on_stall;
};

class StudyExecutor {
 public:
  struct Shard {
    std::uint64_t key = 0;  // stable identity; also the canonical merge rank
    std::function<void()> work;   // parallel phase; owns its output buffer
    std::function<void()> merge;  // serial phase; folds the buffer in
    // Checkpoint seam (both or neither): `save` serializes the work buffer
    // after the work phase; `restore` repopulates it from a saved blob so
    // the work can be skipped, returning false to reject the blob (format
    // drift) and recompute.
    std::function<std::string()> save;
    std::function<bool(const std::string&)> restore;
  };

  // The executor borrows the pool; a null pool runs every work on the
  // calling thread. `metrics` (optional) counts shards.
  explicit StudyExecutor(ThreadPool* pool, Metrics* metrics = nullptr)
      : pool_(pool), metrics_(metrics) {}

  // Runs all shard works concurrently (the calling thread participates),
  // then merges serially in ascending (key, insertion-index) order; with no
  // pool, each work runs in key order just before its merge.
  // `progress(done, total)` fires from the calling thread after each merge.
  //
  // With a CheckpointLog, shards whose key has a saved blob restore it and
  // skip the work phase; every other shard is recorded (in canonical merge
  // order) as it merges, and a resumed run's final fold is byte-identical
  // to an uninterrupted one. With no pool, a shard is recorded as soon as
  // its work is done, so a killed study keeps every shard it finished; with
  // a pool, nothing is recorded until every work has finished.
  // With WatchdogOptions::stall_timeout_s > 0, the parallel phase runs under
  // the stall watchdog; without a pool nothing is queued elsewhere, so it
  // has nothing to reclaim.
  void Execute(std::vector<Shard> shards,
               const std::function<void(std::size_t, std::size_t)>& progress =
                   {},
               CheckpointLog* checkpoint = nullptr,
               const WatchdogOptions& watchdog = {});

  // Shard works finished so far in the current (or most recent) Execute()
  // call's parallel phase. Workers bump it concurrently, so it is the one
  // piece of cross-thread mutable state the executor owns; a monitor thread
  // may poll it for liveness.
  std::size_t CompletedWorks() const EXCLUDES(mu_);

 private:
  ThreadPool* pool_ = nullptr;
  Metrics* metrics_ = nullptr;
  mutable Mutex mu_;
  std::size_t completed_works_ GUARDED_BY(mu_) = 0;
};

}  // namespace manic::runtime
