#include "runtime/study_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>

#include "runtime/parse.h"

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
    CheckpointLog* checkpoint, const WatchdogOptions& watchdog) {
  std::stable_sort(shards.begin(), shards.end(),
                   [](const Shard& a, const Shard& b) { return a.key < b.key; });
  {
    MutexLock lock(mu_);
    completed_works_ = 0;
  }

  // Resume: restore checkpointed shards and drop their work phase. Restore
  // runs here on the calling thread — it is deserialization, not work.
  std::vector<bool> restored(shards.size(), false);
  if (checkpoint != nullptr) {
    for (std::size_t i = 0; i < shards.size(); ++i) {
      if (!shards[i].restore) continue;
      const auto blob = checkpoint->Lookup(shards[i].key);
      if (blob.has_value() && shards[i].restore(*blob)) {
        restored[i] = true;
      }
    }
  }

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (!restored[i]) pending.push_back(i);
  }

  const auto run_work = [&](std::size_t i) {
    if (shards[i].work) shards[i].work();
    if (metrics_ != nullptr) metrics_->AddShards();
    MutexLock lock(mu_);
    ++completed_works_;
  };

  // With no pool, each work runs in the merge loop below, just before its
  // merge, so progress and checkpoint records follow every shard.
  if (pool_ != nullptr && watchdog.stall_timeout_s <= 0.0) {
    // Fan out. ParallelFor (rather than bare Submit) lets the calling thread
    // execute shards too, so an exclusive pool is not assumed.
    pool_->ParallelFor(pending.size(),
                       [&](std::size_t k) { run_work(pending[k]); });
  } else if (pool_ != nullptr) {
    // Watchdog path: per-shard claim states let the caller reclaim shards
    // the pool has not started once the stall deadline passes. 0 = queued,
    // 1 = running, 2 = done.
    struct Tracker {
      std::unique_ptr<std::atomic<int>[]> state;
      std::atomic<std::size_t> done{0};
      Mutex mu;
      CondVar cv;
    };
    const std::size_t n = pending.size();
    Tracker tracker;
    tracker.state = std::make_unique<std::atomic<int>[]>(n);
    for (std::size_t k = 0; k < n; ++k) {
      tracker.state[k].store(0, std::memory_order_relaxed);
    }
    const auto run_claimed = [&](std::size_t k) {
      run_work(pending[k]);
      tracker.state[k].store(2, std::memory_order_release);
      if (tracker.done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        MutexLock lock(tracker.mu);
        tracker.cv.notify_all();
      }
    };
    for (std::size_t k = 0; k < n; ++k) {
      pool_->Submit([&, k] {
        int expected = 0;
        if (tracker.state[k].compare_exchange_strong(
                expected, 1, std::memory_order_acq_rel)) {
          run_claimed(k);
        }
      });
    }
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(watchdog.stall_timeout_s);
    const auto poll =
        std::chrono::duration<double>(std::max(watchdog.poll_interval_s, 0.01));
    bool rescued = false;
    while (tracker.done.load(std::memory_order_acquire) < n) {
      {
        MutexLock lock(tracker.mu);
        if (tracker.done.load(std::memory_order_acquire) >= n) break;
        tracker.cv.wait_for(tracker.mu, poll);
      }
      if (rescued || std::chrono::steady_clock::now() < deadline) continue;
      // Deadline passed with shards unfinished: reclaim everything still
      // queued and run it here; count what is wedged inside the pool.
      rescued = true;
      std::size_t requeued = 0;
      std::size_t stuck = 0;
      for (std::size_t k = 0; k < n; ++k) {
        int expected = 0;
        if (tracker.state[k].compare_exchange_strong(
                expected, 1, std::memory_order_acq_rel)) {
          ++requeued;
          run_claimed(k);
        } else if (expected == 1) {
          ++stuck;
        }
      }
      if (watchdog.on_stall) watchdog.on_stall(requeued, stuck);
    }
    // Caller-claimed shards leave their pool task behind as a CAS-fail
    // no-op; drain them before the tracker (and this frame) goes away.
    pool_->WaitIdle();
  }

  // Fold in canonical key order, never completion order; record each fresh
  // shard's blob as it merges, so the log's record order is canonical too.
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (pool_ == nullptr && !restored[i]) run_work(i);
    if (shards[i].merge) shards[i].merge();
    if (checkpoint != nullptr && !restored[i] && shards[i].save &&
        checkpoint->Record(shards[i].key, shards[i].save()) !=
            LogStatus::kOk) {
      // The log refuses appends from here on; the output is unaffected.
      checkpoint = nullptr;
    }
    if (progress) progress(i + 1, shards.size());
  }
}

std::size_t StudyExecutor::CompletedWorks() const {
  MutexLock lock(mu_);
  return completed_works_;
}

}  // namespace manic::runtime
