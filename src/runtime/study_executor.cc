#include "runtime/study_executor.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

#include "runtime/parse.h"
#include "runtime/thread_annotations.h"

namespace manic::runtime {

RuntimeOptions RuntimeOptions::FromEnv(int default_threads) {
  RuntimeOptions options;
  options.threads = default_threads;
  // Env overrides are untrusted text like argv: parse bounded, and fall
  // back to the default rather than letting garbage read as 0.
  if (const char* env = std::getenv("MANIC_THREADS")) {
    bool ok = true;
    const int threads = ParseBoundedInt(env, 0, 4096, &ok);
    if (ok) options.threads = threads;
  }
  if (const char* env = std::getenv("MANIC_MONTHS_PER_SHARD")) {
    bool ok = true;
    const int months = ParseBoundedInt(env, 1, 1200, &ok);
    if (ok) options.months_per_shard = months;
  }
  return options;
}

void StudyExecutor::Execute(
    std::vector<Shard> shards,
    const std::function<void(std::size_t, std::size_t)>& progress,
    CheckpointLog* checkpoint) {
  std::stable_sort(shards.begin(), shards.end(),
                   [](const Shard& a, const Shard& b) { return a.key < b.key; });
  const std::size_t n = shards.size();

  // Each shard's claim state. A work runs on whichever thread wins the CAS
  // from kQueued to kRunning; it publishes kDone under `mu` and wakes the
  // calling thread, the only waiter.
  enum : int { kQueued, kRunning, kDone };
  const auto state = std::make_unique<std::atomic<int>[]>(n);
  Mutex mu;
  CondVar done_cv;

  // Resume: restore checkpointed shards and drop their work. Restore runs
  // here on the calling thread — it is deserialization, not work.
  std::vector<bool> restored(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (checkpoint != nullptr && shards[i].restore) {
      const auto blob = checkpoint->Lookup(shards[i].key);
      restored[i] = blob.has_value() && shards[i].restore(*blob);
    }
    state[i].store(restored[i] ? kDone : kQueued, std::memory_order_relaxed);
  }

  const auto try_run = [&](std::size_t i) {
    int expected = kQueued;
    if (!state[i].compare_exchange_strong(expected, kRunning,
                                          std::memory_order_acq_rel)) {
      return false;
    }
    if (shards[i].work) shards[i].work();
    if (metrics_ != nullptr) metrics_->AddShards();
    MutexLock lock(mu);
    state[i].store(kDone, std::memory_order_release);
    done_cv.notify_all();
    return true;
  };
  try {
    if (pool_ != nullptr) {
      for (std::size_t i = 0; i < n; ++i) {
        if (!restored[i]) pool_->Submit([&try_run, i] { try_run(i); });
      }
    }
    // Shards at or above `top` are no longer queued: claims only ever leave
    // kQueued, so the scan for the highest queued shard only moves down.
    std::size_t top = n;
    for (std::size_t i = 0; i < n; ++i) {
      while (state[i].load(std::memory_order_acquire) != kDone) {
        if (try_run(i)) break;
        // Shard i runs elsewhere: take the highest-keyed shard still queued,
        // the one a worker would reach last.
        bool ran = false;
        while (!ran && top > i + 1) ran = try_run(--top);
        if (ran) continue;
        MutexLock lock(mu);
        done_cv.wait(mu, [&] {
          return state[i].load(std::memory_order_acquire) == kDone;
        });
      }
      // Fold in canonical key order, never completion order; record each
      // fresh shard's blob as it merges, so the log's record order is
      // canonical too.
      if (shards[i].merge) shards[i].merge();
      if (checkpoint != nullptr && !restored[i] && shards[i].save &&
          checkpoint->Record(shards[i].key, shards[i].save()) !=
              LogStatus::kOk) {
        // The log refuses appends from here on; the output is unaffected.
        checkpoint = nullptr;
      }
      if (progress) progress(i + 1, n);
    }
  } catch (...) {
    // Pool tasks reference this frame: claim every queued shard so none
    // starts, and wait out the running ones before unwinding. A failed
    // Submit lands here too, after some tasks are already queued.
    for (std::size_t i = 0; i < n; ++i) {
      int expected = kQueued;
      state[i].compare_exchange_strong(expected, kRunning,
                                       std::memory_order_acq_rel);
    }
    if (pool_ != nullptr) pool_->WaitIdle();
    throw;
  }
  // Drain the tasks whose shard the calling thread claimed: each is a
  // no-op that still references this frame.
  if (pool_ != nullptr) pool_->WaitIdle();
}

}  // namespace manic::runtime
