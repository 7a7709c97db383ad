// Tests for the manic::runtime subsystem: the work-stealing pool, the
// deterministic SeedTree derivation scheme, the StudyExecutor's canonical
// merge order, and — the load-bearing property — that the longitudinal study
// driver produces bit-identical results at every thread count and shard
// granularity. The pool tests double as a ThreadSanitizer stress workload
// (scripts/check.sh runs this suite under -DMANIC_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "runtime/canonical.h"
#include "runtime/checkpoint.h"
#include "runtime/io_fault.h"
#include "runtime/parse.h"
#include "runtime/seed_tree.h"
#include "runtime/study_executor.h"
#include "runtime/thread_pool.h"
#include "scenario/driver.h"
#include "sim/faults/fault_plan.h"

namespace manic {
namespace {

// ---- ParseBoundedInt: the argv/env trust boundary ---------------------------

TEST(ParseBoundedInt, AcceptsInRangeAndKeepsOkTrue) {
  bool ok = true;
  EXPECT_EQ(runtime::ParseBoundedInt("42", 0, 100, &ok), 42);
  EXPECT_TRUE(ok);
  EXPECT_EQ(runtime::ParseBoundedInt("-7", -10, 10, &ok), -7);
  EXPECT_TRUE(ok);
  EXPECT_EQ(runtime::ParseBoundedInt("0", 0, 0, &ok), 0);
  EXPECT_TRUE(ok);
}

TEST(ParseBoundedInt, RejectsGarbageTrailingJunkAndOutOfRange) {
  const auto rejects = [](const char* text, int lo, int hi) {
    bool ok = true;
    const int v = runtime::ParseBoundedInt(text, lo, hi, &ok);
    EXPECT_FALSE(ok) << "'" << text << "' should not parse";
    EXPECT_EQ(v, lo) << text;
  };
  rejects("", 1, 8);
  rejects("abc", 1, 8);
  rejects("4x", 1, 8);       // trailing junk: atoi would read 4
  rejects("12 ", 1, 64);     // trailing space
  rejects("0", 1, 8);        // below lo
  rejects("9", 1, 8);        // above hi
  rejects("99999999999999999999", 1, 1000000);  // overflows long
}

TEST(ParseBoundedInt, FailureAccumulatesAcrossParses) {
  // One ok flag can guard a whole flag loop: a failure sticks even when a
  // later parse succeeds.
  bool ok = true;
  (void)runtime::ParseBoundedInt("bogus", 1, 8, &ok);
  EXPECT_EQ(runtime::ParseBoundedInt("4", 1, 8, &ok), 4);
  EXPECT_FALSE(ok);
}

// ---- SeedTree ---------------------------------------------------------------

TEST(SeedTree, LeafMatchesHashMixContract) {
  // The driver's historical noise keys were HashMix(seed, vp, link); SeedTree
  // leaves must reproduce them exactly so seeded studies stay stable.
  const runtime::SeedTree tree(99);
  EXPECT_EQ(tree.Leaf(7, 13), stats::Rng::HashMix(99, 7, 13));
  EXPECT_EQ(tree.Leaf(7), stats::Rng::HashMix(99, 7, 0));
  EXPECT_DOUBLE_EQ(tree.LeafUnit(3, 0xC1), stats::Rng::HashToUnit(99, 3, 0xC1));
}

TEST(SeedTree, ChildrenAreStableAndDistinct) {
  const runtime::SeedTree root(2016);
  const std::uint64_t a = root.Child(std::uint64_t{1}).seed();
  EXPECT_EQ(a, root.Child(std::uint64_t{1}).seed());  // pure function
  EXPECT_NE(a, root.Child(std::uint64_t{2}).seed());
  EXPECT_NE(a, root.Leaf(1));  // descending and drawing never collide
  EXPECT_NE(root.Child("tslp").seed(), root.Child("churn").seed());
  // Depth matters: root/1/2 != root/2/1.
  EXPECT_NE(root.Child(std::uint64_t{1}).Child(std::uint64_t{2}).seed(),
            root.Child(std::uint64_t{2}).Child(std::uint64_t{1}).seed());
}

TEST(SeedTree, StreamsIndependentOfThreadAndOrder) {
  // Derive the same 4096 shard seeds serially and from a pool in scrambled
  // order: the streams must be identical — derivation keys on (root, shard
  // key) alone, never on scheduling.
  constexpr std::size_t kN = 4096;
  const runtime::SeedTree root(0xDEADBEEF);
  std::vector<std::uint64_t> serial(kN), parallel(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    serial[i] = root.Child(i % 7).Leaf(i, i >> 3);
  }
  runtime::ThreadPool pool(8);
  pool.ParallelFor(kN, [&](std::size_t i) {
    const std::size_t j = kN - 1 - i;  // scrambled visit order
    parallel[j] = root.Child(j % 7).Leaf(j, j >> 3);
  });
  EXPECT_EQ(serial, parallel);
}

// ---- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, ExecutesEverySubmittedTask) {
  runtime::Metrics metrics;
  runtime::ThreadPool pool(4, &metrics);
  constexpr std::size_t kTasks = 5000;
  std::vector<int> hits(kTasks, 0);
  std::atomic<std::size_t> count{0};
  for (std::size_t i = 0; i < kTasks; ++i) {
    pool.Submit([&hits, &count, i] {
      hits[i] += 1;  // disjoint slots: no data race
      count.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(std::memory_order_relaxed), kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) ASSERT_EQ(hits[i], 1) << i;
  EXPECT_EQ(metrics.tasks(), kTasks);
  EXPECT_GE(metrics.peak_queue_depth(), 1u);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  runtime::ThreadPool pool(3);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(
      kN, [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
      /*grain=*/7);
  for (std::size_t i = 0; i < kN; ++i)
    ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1) << i;
  pool.ParallelFor(0, [&](std::size_t) { FAIL(); });  // empty range is a no-op
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  runtime::ThreadPool pool(2);
  std::atomic<int> inner{0};
  pool.ParallelFor(4, [&](std::size_t) {
    // Reentrant use from a worker: must degrade to inline execution, not
    // deadlock the worker on its own queue.
    pool.ParallelFor(8, [&](std::size_t) {
      inner.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner.load(std::memory_order_relaxed), 32);
}

TEST(ThreadPool, StressManyWavesWithUnevenTasks) {
  // TSan-friendly stress: repeated submit/wait waves of tasks with skewed
  // costs (forcing steals), all touching disjoint state plus one shared
  // atomic. Run under scripts/check.sh's thread-sanitizer pass.
  runtime::Metrics metrics;
  runtime::ThreadPool pool(4, &metrics);
  std::atomic<std::uint64_t> sum{0};
  for (int wave = 0; wave < 20; ++wave) {
    std::vector<std::uint64_t> slots(257, 0);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      pool.Submit([&slots, &sum, i] {
        std::uint64_t acc = 0;
        const std::uint64_t spins = (i % 17) * 400;  // uneven task sizes
        for (std::uint64_t k = 0; k <= spins; ++k) {
          acc += k * 2654435761u + i + 1;
        }
        slots[i] = acc;
        sum.fetch_add(acc, std::memory_order_relaxed);
      });
    }
    pool.WaitIdle();
    std::uint64_t expect = 0;
    for (const std::uint64_t v : slots) {
      ASSERT_NE(v, 0u);
      expect += v;
    }
    EXPECT_EQ(sum.exchange(0, std::memory_order_relaxed), expect);
  }
  EXPECT_EQ(metrics.tasks(), 20u * 257u);
}

// ---- StudyExecutor ----------------------------------------------------------

TEST(StudyExecutor, MergesInAscendingKeyOrderRegardlessOfSchedule) {
  runtime::Metrics metrics;
  runtime::ThreadPool pool(4, &metrics);
  runtime::StudyExecutor executor(&pool, &metrics);
  constexpr std::size_t kShards = 40;
  std::vector<std::uint64_t> merge_order;
  std::vector<runtime::StudyExecutor::Shard> shards;
  for (std::size_t i = 0; i < kShards; ++i) {
    // Insert keys in descending order and make low keys the slowest, so a
    // completion-order merge would come out descending-ish.
    const std::uint64_t key = kShards - 1 - i;
    runtime::StudyExecutor::Shard shard;
    shard.key = key;
    shard.work = [key] {
      std::this_thread::sleep_for(std::chrono::microseconds((40 - key) * 50));
    };
    shard.merge = [&merge_order, key] { merge_order.push_back(key); };
    shards.push_back(std::move(shard));
  }
  std::size_t progress_calls = 0;
  executor.Execute(shards, [&](std::size_t done, std::size_t total) {
    EXPECT_EQ(total, kShards);
    EXPECT_EQ(done, ++progress_calls);
  });
  ASSERT_EQ(merge_order.size(), kShards);
  for (std::size_t i = 0; i < kShards; ++i) EXPECT_EQ(merge_order[i], i);
  EXPECT_EQ(metrics.shards(), kShards);
}

// ---- end-to-end determinism -------------------------------------------------

// Serializes every observable field of a StudyResult with exact (hex-float)
// formatting, so two results compare byte-identically iff every double is
// bit-identical.
std::string Dump(const scenario::StudyResult& result) {
  std::string out;
  char buf[256];
  auto add = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
  };
  add("pairs=%zu links=%zu probes=%llu records=%lld\n", result.vp_link_pairs,
      result.links_observed,
      static_cast<unsigned long long>(result.probes_for_discovery),
      static_cast<long long>(result.day_links.TotalRecords()));
  add("truth tp=%lld fp=%lld fn=%lld tn=%lld\n", result.truth_tp,
      result.truth_fp, result.truth_fn, result.truth_tn);
  for (const auto& [access, n] : result.links_ever_by_access) {
    add("ever %u=%d\n", access, n);
  }
  for (const auto& [access, n] : result.links_final_month_by_access) {
    add("final %u=%d\n", access, n);
  }
  for (const auto& row : result.day_links.Table3()) {
    add("t3 %u %d %d %a\n", row.access, row.observed_tcps, row.congested_tcps,
        row.pct_congested_day_links);
  }
  for (const auto& [key, stats] : result.day_links.Pairs()) {
    add("pair %u-%u %lld %lld\n", key.first, key.second,
        static_cast<long long>(stats.observed_day_links),
        static_cast<long long>(stats.congested_day_links));
    for (const double v :
         result.day_links.MonthlyCongestedPct(key.first, key.second)) {
      add(" %a", v);
    }
    for (const double v :
         result.day_links.MonthlyMeanCongestion(key.first, key.second)) {
      add(" %a", v);
    }
    out += "\n";
  }
  auto add_hist = [&](const std::string& name,
                      const analysis::TimeOfDayHistogram& hist) {
    add("hist %s %lld %lld:", name.c_str(),
        static_cast<long long>(hist.Total(false)),
        static_cast<long long>(hist.Total(true)));
    for (const bool weekend : {false, true}) {
      for (const double v : hist.Normalized(weekend)) add(" %a", v);
    }
    out += "\n";
  };
  for (const auto& [name, hist] : result.comcast_vp_hists) {
    add_hist(name, hist);
  }
  add_hist("consolidated", result.comcast_consolidated);
  return out;
}

scenario::StudyResult RunMiniStudy(int threads, int months_per_shard,
                                   runtime::Metrics* metrics = nullptr,
                                   const std::string& checkpoint_path = "") {
  // A fresh world per run: discovery probing advances the network's RNG, so
  // reusing one world would not be a like-for-like comparison.
  scenario::UsBroadbandOptions world_options;
  world_options.link_scale = 0.4;
  scenario::UsBroadband world = scenario::MakeUsBroadband(world_options);
  scenario::StudyOptions options;
  options.days = 90;  // 3 study months
  options.max_vps = 4;
  options.runtime.threads = threads;
  options.runtime.months_per_shard = months_per_shard;
  options.runtime.metrics = metrics;
  options.checkpoint_path = checkpoint_path;
  return scenario::RunLongitudinalStudy(world, options);
}

// 64-bit FNV-1a, so a whole Dump pins to one constant.
std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Fnv1a(Dump(RunMiniStudy(1, 0))) as the per-pair reference loop computed
// it, before one-thread runs moved onto the link-major shards. Every thread
// count and shard granularity must reproduce it.
constexpr std::uint64_t kMiniStudyDigest = 0x0a9e0f5ea5439077ULL;

TEST(StudyDeterminism, ParallelRunsMatchThePinnedDigest) {
  runtime::Metrics metrics;
  EXPECT_EQ(Fnv1a(Dump(RunMiniStudy(2, 0, &metrics))), kMiniStudyDigest);
  // Shards actually ran on the pool, with per-phase timing captured.
  EXPECT_GT(metrics.shards(), 0u);
  EXPECT_GT(metrics.tasks(), 0u);
  const std::string report = metrics.Report();
  EXPECT_NE(report.find("classify"), std::string::npos);
  EXPECT_NE(report.find("truth"), std::string::npos);
}

TEST(StudyDeterminism, MonthShardingIsBitIdenticalToo) {
  // Month-granularity shards replay up to window_days - 1 days of warmup;
  // RollingAutocorr state is a pure function of its last window_days inputs,
  // so the classifications — and every downstream float sum — must not move.
  EXPECT_EQ(Fnv1a(Dump(RunMiniStudy(8, 1))), kMiniStudyDigest);
}

// One thread runs the same link-major shards, all on the calling thread: no
// pool exists, so no task is ever submitted.
TEST(StudyDeterminism, OneThreadRunsShardsOnTheCaller) {
  runtime::Metrics metrics;
  EXPECT_EQ(Fnv1a(Dump(RunMiniStudy(1, 0, &metrics))), kMiniStudyDigest);
  EXPECT_GT(metrics.shards(), 0u);
  EXPECT_EQ(metrics.tasks(), 0u);
}

// ---- cross-commit golden pin ------------------------------------------------

scenario::StudyResult RunGoldenStudy(const sim::faults::FaultPlan* plan,
                                     int threads = 1,
                                     int months_per_shard = 0) {
  scenario::UsBroadband world = scenario::MakeUsBroadband();
  scenario::StudyOptions options;
  options.days = 120;
  options.max_vps = 3;
  options.fault_plan = plan;
  options.runtime.threads = threads;
  options.runtime.months_per_shard = months_per_shard;
  return scenario::RunLongitudinalStudy(world, options);
}

std::uint64_t GoldenStudyDigest(const sim::faults::FaultPlan* plan) {
  return Fnv1a(Dump(RunGoldenStudy(plan)));
}

// small_chaos.plan plus two outages of link 208. The plan's link faults hit
// links 5 and 12, which the golden study does not observe, so two outages
// of link 208, which VP 0 observes, are added. Ten minutes from 04:00 UTC
// on day 18, inside the link's daily congestion, leave a bin whose minimum
// is a down round's empty queue. Days 60-99 lose every far bin, so the
// link's window fails the usable-data guard near the end of the outage.
std::optional<sim::faults::FaultPlan> GoldenChaosPlan(std::string* error) {
  auto plan = sim::faults::FaultPlan::ParseFile(
      std::string(MANIC_SOURCE_DIR) + "/examples/fault_plans/small_chaos.plan",
      error);
  if (!plan.has_value()) return plan;
  plan->LinkDown(208, 18 * 86400 + 4 * 3600, 18 * 86400 + 4 * 3600 + 600);
  plan->LinkDown(208, 60 * 86400, 100 * 86400);
  return plan;
}

// The determinism tests above compare runs of one build; these pin a
// reduced study's output across commits, so a change meant to be a pure
// refactor or speedup must leave both digests exactly where they are. The
// chaos run's link outage and VP outage take the synthesizer's down-link
// and skipped-round paths, which a fault-free run never reaches.
TEST(StudyGolden, FaultFreeDigestIsPinned) {
  EXPECT_EQ(GoldenStudyDigest(nullptr), 0xf1f511149275c1abULL);
}

TEST(StudyGolden, SmallChaosDigestIsPinned) {
  std::string error;
  const auto plan = GoldenChaosPlan(&error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_EQ(GoldenStudyDigest(&*plan), 0x2a720567358c8ad0ULL);
}

// The exported measurement stream, which the serving plane's parity gate
// replays, shares each link-day's rounds across the link's pairs too, so
// its rows are pinned as well: every row's VP, link and day, and the bits
// of its far and near bins, in callback order.
std::uint64_t GoldenStreamDigest(const sim::faults::FaultPlan* plan) {
  scenario::UsBroadband world = scenario::MakeUsBroadband();
  scenario::StudyOptions options;
  options.days = 120;
  options.max_vps = 3;
  options.fault_plan = plan;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto add = [&h](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  };
  scenario::ExportStudyStream(
      world, options,
      [&add](topo::VpId vp, topo::LinkId link, std::int64_t day,
             std::span<const float> far, std::span<const float> near) {
        add(&vp, sizeof vp);
        add(&link, sizeof link);
        add(&day, sizeof day);
        add(far.data(), far.size_bytes());
        add(near.data(), near.size_bytes());
      });
  return h;
}

TEST(StudyGolden, SmallChaosStreamDigestIsPinned) {
  std::string error;
  const auto plan = GoldenChaosPlan(&error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_EQ(GoldenStreamDigest(&*plan), 0x161bfa3686cd84faULL);
}

// Shards evaluate each link-day's rounds once and apply every VP's
// outages, skipped rounds and dropped writes on top of the shared rounds.
// Under the golden chaos plan the one-thread run, the three-thread run and
// the month-chunked run must all reproduce the pinned chaos digest.
TEST(StudyDeterminism, ChaosRunIsBitIdenticalAcrossShardings) {
  std::string error;
  const auto plan = GoldenChaosPlan(&error);
  ASSERT_TRUE(plan.has_value()) << error;
  const scenario::StudyResult one_thread = RunGoldenStudy(&*plan, 1, 0);
  // Some link is seen by more than one VP, so some rounds are shared.
  EXPECT_GT(one_thread.vp_link_pairs, one_thread.links_observed);
  EXPECT_EQ(Fnv1a(Dump(one_thread)), 0x2a720567358c8ad0ULL);
  EXPECT_EQ(Fnv1a(Dump(RunGoldenStudy(&*plan, 3, 0))), 0x2a720567358c8ad0ULL);
  EXPECT_EQ(Fnv1a(Dump(RunGoldenStudy(&*plan, 3, 1))), 0x2a720567358c8ad0ULL);
}

// Both entry points install the plan's fault hook on the world's network. A
// callback that throws must not leave the network pointing at the
// destroyed injector.
TEST(StudyFaults, ThrowingCallbackClearsTheFaultHook) {
  std::string error;
  const auto plan = GoldenChaosPlan(&error);
  ASSERT_TRUE(plan.has_value()) << error;
  scenario::StudyOptions options;
  options.days = 30;
  options.max_vps = 2;
  options.fault_plan = &*plan;
  {
    scenario::UsBroadband world = scenario::MakeUsBroadband();
    scenario::StudyOptions throwing = options;
    throwing.on_day_link = [](const analysis::DayLinkRecord&) {
      throw std::runtime_error("record sink failed");
    };
    EXPECT_THROW(scenario::RunLongitudinalStudy(world, throwing),
                 std::runtime_error);
    EXPECT_EQ(world.net->fault_hook(), nullptr);
  }
  {
    scenario::UsBroadband world = scenario::MakeUsBroadband();
    EXPECT_THROW(
        scenario::ExportStudyStream(
            world, options,
            [](topo::VpId, topo::LinkId, std::int64_t, std::span<const float>,
               std::span<const float>) {
              throw std::runtime_error("stream sink failed");
            }),
        std::runtime_error);
    EXPECT_EQ(world.net->fault_hook(), nullptr);
  }
}

// The canonical-order helpers are the sanctioned way to fold over hash
// containers (manic-lint rule `unordered-iter`): a key-sorted snapshot makes
// the accumulation order a pure function of the keys, never of hashing.
TEST(CanonicalOrder, SortedItemsAndKeysAreKeySorted) {
  std::unordered_map<int, double> weights;
  for (int k : {9, 2, 7, 4, 1}) weights[k] = k * 0.5;
  const auto items = runtime::SortedItems(weights);
  ASSERT_EQ(items.size(), 5u);
  for (std::size_t i = 1; i < items.size(); ++i) {
    EXPECT_LT(items[i - 1].first, items[i].first);
  }
  EXPECT_EQ(items.front().first, 1);
  EXPECT_EQ(items.back().first, 9);

  std::unordered_set<int> keys_only{3, 1, 2};
  EXPECT_EQ(runtime::SortedKeys(keys_only), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(runtime::SortedKeys(weights), (std::vector<int>{1, 2, 4, 7, 9}));
}

TEST(CanonicalOrder, FoldVisitsAscendingAndIsInsertionInvariant) {
  // Same entries, adversarial insertion orders: the fold sequence (and thus
  // any non-commutative accumulation) must be identical.
  auto run = [](const std::vector<int>& order) {
    std::unordered_map<int, double> m;
    for (int k : order) m[k] = 1.0 / (1 + k);
    std::string trace;
    double acc = 0.0;
    runtime::CanonicalFold(m, [&](int key, double value) {
      trace += std::to_string(key) + ";";
      acc = acc * 0.5 + value;  // order-sensitive on purpose
    });
    return std::pair(trace, acc);
  };
  const auto a = run({1, 2, 3, 4, 5, 6, 7, 8});
  const auto b = run({8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_EQ(a.first, "1;2;3;4;5;6;7;8;");
  EXPECT_EQ(a, b);
}

TEST(StudyDeterminism, ProgressReportsPhasesInOrder) {
  for (const int threads : {1, 2}) {
    SCOPED_TRACE(threads);
    scenario::UsBroadbandOptions world_options;
    world_options.link_scale = 0.3;
    scenario::UsBroadband world = scenario::MakeUsBroadband(world_options);
    scenario::StudyOptions options;
    options.days = 60;
    options.max_vps = 2;
    options.runtime.threads = threads;
    std::vector<std::string> phases;
    std::thread::id callback_thread;
    bool single_thread = true;
    options.progress = [&](const scenario::StudyProgress& progress) {
      if (phases.empty() || phases.back() != progress.phase) {
        phases.push_back(progress.phase);
      }
      if (phases.size() == 1 && progress.done == progress.total) {
        callback_thread = std::this_thread::get_id();
      } else if (callback_thread != std::thread::id() &&
                 std::this_thread::get_id() != callback_thread) {
        single_thread = false;
      }
      EXPECT_LE(progress.done, progress.total);
    };
    scenario::RunLongitudinalStudy(world, options);
    ASSERT_EQ(phases.size(), 4u);
    EXPECT_EQ(phases[0], "discover");
    EXPECT_EQ(phases[1], "classify");
    EXPECT_EQ(phases[2], "aggregate");
    EXPECT_EQ(phases[3], "truth");
    // The no-interleave contract: every callback fires on the calling
    // thread.
    EXPECT_TRUE(single_thread);
  }
}

// ---- checkpoint log ---------------------------------------------------------

TEST(CheckpointLog, RoundTripAndShadowing) {
  const std::string path = testing::TempDir() + "manic_ckpt_roundtrip.log";
  std::remove(path.c_str());
  {
    runtime::CheckpointLog log(path);
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.Record(7, "alpha"), runtime::LogStatus::kOk);
    EXPECT_EQ(log.Record(9, "beta"), runtime::LogStatus::kOk);
    // A later record shadows the earlier one.
    EXPECT_EQ(log.Record(7, "gamma"), runtime::LogStatus::kOk);
  }
  runtime::CheckpointLog log(path);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.Lookup(7), "gamma");
  EXPECT_EQ(log.Lookup(9), "beta");
  EXPECT_FALSE(log.Lookup(1).has_value());
  std::remove(path.c_str());
}

TEST(CheckpointLog, TruncatedTailIsDiscardedAndLogStaysAppendable) {
  const std::string path = testing::TempDir() + "manic_ckpt_torn.log";
  std::remove(path.c_str());
  {
    runtime::CheckpointLog log(path);
    EXPECT_EQ(log.Record(1, "one"), runtime::LogStatus::kOk);
    EXPECT_EQ(log.Record(2, "twotwo"), runtime::LogStatus::kOk);
  }
  // A kill mid-write leaves a half-written trailing record.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 3);
  {
    runtime::CheckpointLog log(path);
    EXPECT_EQ(log.size(), 1u);
    EXPECT_TRUE(log.Lookup(1).has_value());
    EXPECT_FALSE(log.Lookup(2).has_value());
    // Re-recording the lost shard must not leave torn bytes in the middle
    // of the file...
    EXPECT_EQ(log.Record(2, "twotwo"), runtime::LogStatus::kOk);
  }
  // ...so a *second* resume still parses every record.
  runtime::CheckpointLog log(path);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.Lookup(2), "twotwo");
  std::remove(path.c_str());
}

TEST(CheckpointLog, ForeignFileYieldsNoRecords) {
  const std::string path = testing::TempDir() + "manic_ckpt_foreign.log";
  {
    std::ofstream os(path, std::ios::binary);
    os << "this is not a checkpoint log\n";
  }
  const runtime::CheckpointLog log(path);
  EXPECT_EQ(log.size(), 0u);
  std::remove(path.c_str());
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// An empty file, or one killed while its magic was being stamped, holds
// nothing durable: the log re-stamps it, and what is recorded next survives
// a reload.
TEST(CheckpointLog, ShortFileIsRestampedAndRecords) {
  const std::string path = testing::TempDir() + "manic_ckpt_short.log";
  for (const std::string& stub : {std::string(), std::string("MANIC")}) {
    {
      std::ofstream os(path, std::ios::binary);
      os << stub;
    }
    {
      runtime::CheckpointLog log(path);
      EXPECT_EQ(log.size(), 0u);
      EXPECT_EQ(log.Record(3, "three"), runtime::LogStatus::kOk);
    }
    const runtime::CheckpointLog log(path);
    EXPECT_EQ(log.Lookup(3), "three") << "stub of " << stub.size() << " bytes";
  }
  std::remove(path.c_str());
}

// A foreign file — including a format-1 checkpoint — is never appended to:
// Record reports the refusal and the file keeps its bytes.
TEST(CheckpointLog, ForeignFileIsNeverAppendedTo) {
  const std::string path = testing::TempDir() + "manic_ckpt_v1.log";
  for (const std::string& foreign :
       {std::string("MANICCKPT1\n") + std::string(16, '\0'),
        std::string("this is not a checkpoint log\n")}) {
    {
      std::ofstream os(path, std::ios::binary);
      os << foreign;
    }
    runtime::CheckpointLog log(path);
    EXPECT_EQ(log.size(), 0u);
    EXPECT_NE(log.Record(1, "one"), runtime::LogStatus::kOk);
    EXPECT_FALSE(log.Lookup(1).has_value());
    EXPECT_EQ(FileBytes(path), foreign);
  }
  std::remove(path.c_str());
}

// A study pointed at a checkpoint it cannot append to (a format-1 log here)
// leaves the file alone and says so; its output does not change.
TEST(CheckpointLog, RefusedLogIsReportedByTheStudy) {
  const std::string path = testing::TempDir() + "manic_ckpt_study.log";
  std::remove(path.c_str());
  const scenario::StudyResult fresh = RunMiniStudy(2, 0, nullptr, path);
  EXPECT_FALSE(fresh.checkpoint_refused);
  const std::string v1 = std::string("MANICCKPT1\n") + std::string(16, '\0');
  {
    std::ofstream os(path, std::ios::binary);
    os << v1;
  }
  const scenario::StudyResult refused = RunMiniStudy(2, 0, nullptr, path);
  EXPECT_TRUE(refused.checkpoint_refused);
  EXPECT_EQ(Dump(refused), Dump(fresh));
  EXPECT_EQ(FileBytes(path), v1);
  std::remove(path.c_str());
}

// A resumed study restores every shard from the log: it appends nothing,
// and its output equals the run that wrote the log.
TEST(StudyCheckpoint, ResumeRestoresEveryShardAndAppendsNothing) {
  const std::string path = testing::TempDir() + "manic_ckpt_resume.log";
  for (const int threads : {1, 2}) {
    SCOPED_TRACE(threads);
    std::remove(path.c_str());
    const std::string fresh = Dump(RunMiniStudy(threads, 1, nullptr, path));
    const std::string bytes = FileBytes(path);
    ASSERT_GT(runtime::CheckpointLog(path).size(), 0u);
    const std::string resumed = Dump(RunMiniStudy(threads, 1, nullptr, path));
    EXPECT_EQ(FileBytes(path), bytes);
    EXPECT_EQ(resumed, fresh);
  }
  std::remove(path.c_str());
}

// The study's shard keys are (link index << 16) | month chunk. A log whose
// blobs at those keys carry the previous blob version (2) is recomputed, not
// misread. Two stale logs: one in the real version-2 layout (a day series
// per pair), and one in the current layout stamped version 2, which only
// the version word tells apart. Each holds the link's pair count of empty
// outputs, so a restore that read it would fold empty series and change
// the output.
TEST(StudyCheckpoint, OlderBlobVersionsAreRecomputed) {
  const std::string fresh_path = testing::TempDir() + "manic_ckpt_fresh.log";
  const std::string stale_path = testing::TempDir() + "manic_ckpt_stale.log";
  std::remove(fresh_path.c_str());
  const scenario::StudyResult fresh = RunMiniStudy(2, 0, nullptr, fresh_path);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> link_shards;
  {
    const runtime::CheckpointLog log(fresh_path);
    for (std::uint64_t g = 0; log.Lookup(g << 16).has_value(); ++g) {
      const std::string blob = *log.Lookup(g << 16);
      runtime::BlobReader r(blob);
      std::uint64_t version = 0, pairs = 0;
      ASSERT_TRUE(r.GetU64(&version) && r.GetU64(&pairs));
      ASSERT_TRUE(pairs >= 1 && pairs <= 4);  // one pair per VP at most
      EXPECT_EQ(version, 3u);
      link_shards.emplace_back(g << 16, pairs);
    }
    // Without month chunks, one shard per observed link.
    EXPECT_EQ(link_shards.size(), log.size());
  }
  EXPECT_EQ(link_shards.size(), fresh.links_observed);
  const runtime::CheckpointLog reference(fresh_path);
  for (const bool v2_layout : {true, false}) {
    SCOPED_TRACE(v2_layout ? "version-2 layout" : "current layout");
    std::remove(stale_path.c_str());
    {
      runtime::CheckpointLog stale(stale_path);
      for (const auto& [key, pairs] : link_shards) {
        runtime::BlobWriter w;
        w.PutU64(2);  // blob version
        w.PutU64(pairs);
        if (!v2_layout) w.PutU64(0);  // the link's day series: no days
        for (std::uint64_t p = 0; p < pairs; ++p) {
          if (v2_layout) {
            w.PutI64(0);  // emit_start
            w.PutU64(0);  // the pair's day series: no days
          }
          for (int i = 0; i < 2 * 2 * 24; ++i) w.PutI64(0);  // histograms
          for (int i = 0; i < 9; ++i) w.PutI64(0);           // quality tally
          w.PutU64(0);                                       // quality flags
        }
        ASSERT_EQ(stale.Record(key, w.Take()), runtime::LogStatus::kOk);
      }
    }
    const scenario::StudyResult recomputed =
        RunMiniStudy(2, 0, nullptr, stale_path);
    EXPECT_EQ(Dump(recomputed), Dump(fresh));
    // The recomputed shards were recorded again, as the fresh run saved them.
    const runtime::CheckpointLog resaved(stale_path);
    for (const auto& [key, pairs] : link_shards) {
      EXPECT_EQ(resaved.Lookup(key), reference.Lookup(key)) << "key " << key;
    }
  }
  std::remove(fresh_path.c_str());
  std::remove(stale_path.c_str());
}

TEST(Blob, ExactBitsRoundTrip) {
  runtime::BlobWriter w;
  w.PutU64(0xDEADBEEFCAFEF00DULL);
  w.PutI64(-42);
  w.PutDouble(0.1);  // not representable exactly: bits must survive anyway
  const double nan_payload = std::bit_cast<double>(0x7FF8000000001234ULL);
  w.PutDouble(nan_payload);
  w.PutBytes("hello");

  runtime::BlobReader r(w.str());
  std::uint64_t u = 0;
  std::int64_t i = 0;
  double d = 0.0, n = 0.0;
  std::string bytes;
  ASSERT_TRUE(r.GetU64(&u));
  ASSERT_TRUE(r.GetI64(&i));
  ASSERT_TRUE(r.GetDouble(&d));
  ASSERT_TRUE(r.GetDouble(&n));
  ASSERT_TRUE(r.GetBytes(&bytes));
  EXPECT_EQ(u, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(i, -42);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(d), std::bit_cast<std::uint64_t>(0.1));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(n), 0x7FF8000000001234ULL);
  EXPECT_EQ(bytes, "hello");
  EXPECT_TRUE(r.AtEnd());
  EXPECT_FALSE(r.GetU64(&u));  // reads past the end fail, not wrap
}

// ---- executor: checkpoint seam and claims ---------------------------------

// What one checkpointed study did: its folded output, and how many shards
// ran their work and were serialized for the log.
struct CheckpointedRun {
  std::vector<double> merged;
  int works = 0;
  int saves = 0;
  bool writable = false;  // the log still took appends at the end
};

// Runs `shard_count` shards on a two-worker pool; `progress` may throw.
CheckpointedRun RunCheckpointed(
    const std::string& path, const runtime::IoFaultHook* fault_hook,
    std::uint64_t shard_count = 4,
    const std::function<void(std::size_t, std::size_t)>& progress = {}) {
  runtime::ThreadPool pool(2);
  runtime::StudyExecutor executor(&pool);
  runtime::CheckpointLog checkpoint(path, fault_hook);
  CheckpointedRun result;
  std::vector<runtime::StudyExecutor::Shard> shards;
  auto buffers = std::make_shared<std::vector<double>>(shard_count, 0.0);
  std::atomic<int> works{0};
  for (std::uint64_t k = 0; k < shard_count; ++k) {
    runtime::StudyExecutor::Shard shard;
    shard.key = k;
    shard.work = [k, buffers, &works] {
      (*buffers)[k] = static_cast<double>(k) * 1.25 + 0.1;
      works.fetch_add(1, std::memory_order_relaxed);
    };
    shard.merge = [k, buffers, &result] {
      result.merged.push_back((*buffers)[k]);
    };
    shard.save = [k, buffers, &result] {
      ++result.saves;  // saves run on the calling thread, in key order
      runtime::BlobWriter w;
      w.PutDouble((*buffers)[k]);
      return w.Take();
    };
    shard.restore = [k, buffers](const std::string& blob) {
      runtime::BlobReader r(blob);
      double v = 0.0;
      if (!r.GetDouble(&v) || !r.AtEnd()) return false;
      (*buffers)[k] = v;
      return true;
    };
    shards.push_back(std::move(shard));
  }
  executor.Execute(std::move(shards), progress, &checkpoint);
  result.works = works.load(std::memory_order_relaxed);
  result.writable = checkpoint.writable();
  return result;
}

TEST(StudyExecutor, CheckpointResumeSkipsWorkAndMatchesUninterrupted) {
  const std::string path = testing::TempDir() + "manic_ckpt_exec.log";
  std::remove(path.c_str());
  const CheckpointedRun first = RunCheckpointed(path, nullptr);
  const CheckpointedRun resumed = RunCheckpointed(path, nullptr);
  EXPECT_EQ(first.works, 4);
  EXPECT_EQ(resumed.works, 0);  // every shard restored from the log
  ASSERT_EQ(first.merged.size(), 4u);
  EXPECT_EQ(first.merged, resumed.merged);  // bit-identical fold either way
  std::remove(path.c_str());
}

// A full disk refuses the third shard's record: the executor stops saving
// (the fourth shard is never serialized), the study's output is unchanged,
// and a resume recomputes only the two shards that did not reach the log.
TEST(StudyExecutor, RefusedCheckpointAppendStopsSavingOnly) {
  const std::string path = testing::TempDir() + "manic_ckpt_enospc.log";
  std::remove(path.c_str());
  runtime::ScriptedIoFaults::Config faults;
  faults.enospc_at_op = 3;  // op 0 stamps the magic; ops 1-2 save keys 0-1
  const runtime::ScriptedIoFaults full_disk(faults);
  const CheckpointedRun faulted = RunCheckpointed(path, &full_disk);
  EXPECT_EQ(faulted.works, 4);
  EXPECT_EQ(faulted.saves, 3);
  EXPECT_FALSE(faulted.writable);
  EXPECT_EQ(runtime::CheckpointLog(path).size(), 2u);

  const CheckpointedRun resumed = RunCheckpointed(path, nullptr);
  EXPECT_EQ(resumed.works, 2);
  EXPECT_EQ(resumed.saves, 2);
  EXPECT_TRUE(resumed.writable);
  ASSERT_EQ(faulted.merged.size(), 4u);
  EXPECT_EQ(resumed.merged, faulted.merged);
  EXPECT_EQ(RunCheckpointed(path, nullptr).works, 0);
  std::remove(path.c_str());
}

// With no pool, each shard's work runs just before its own merge: when
// shard k's work starts, shards 0..k-1 are already merged, recorded in the
// checkpoint log and reported, so a kill mid-study keeps every finished
// shard and progress arrives as the shards finish.
TEST(StudyExecutor, WithoutAPoolEachShardIsRecordedBeforeTheNextWork) {
  const std::string path = testing::TempDir() + "manic_ckpt_nopool.log";
  std::remove(path.c_str());
  runtime::StudyExecutor executor(nullptr);
  runtime::CheckpointLog checkpoint(path);
  std::size_t merged = 0;
  std::size_t reported = 0;
  std::vector<runtime::StudyExecutor::Shard> shards;
  for (std::uint64_t k = 0; k < 4; ++k) {
    runtime::StudyExecutor::Shard shard;
    shard.key = k;
    shard.work = [k, &merged, &reported, &checkpoint] {
      EXPECT_EQ(merged, k);
      EXPECT_EQ(checkpoint.size(), k);
      EXPECT_EQ(reported, k);
    };
    shard.merge = [&merged] { ++merged; };
    shard.save = [k] { return std::to_string(k); };
    shard.restore = [](const std::string&) { return true; };
    shards.push_back(std::move(shard));
  }
  executor.Execute(
      std::move(shards),
      [&reported](std::size_t done, std::size_t) { reported = done; },
      &checkpoint);
  EXPECT_EQ(merged, 4u);
  EXPECT_EQ(reported, 4u);
  EXPECT_EQ(checkpoint.size(), 4u);
  std::remove(path.c_str());
}

// With a pool, too, each shard is merged, recorded and reported as soon as
// its work is done, not after the last work: a shard k >= 1 that runs on
// the worker waits (bounded) for shard 0's record, which only the calling
// thread can write. Shards the caller runs wait (bounded) until the worker
// has started one, so the worker surely runs some shard k >= 1.
TEST(StudyExecutor, WithAPoolEachShardIsRecordedAsItMerges) {
  const std::string path = testing::TempDir() + "manic_ckpt_pool.log";
  std::remove(path.c_str());
  runtime::ThreadPool pool(1);
  runtime::StudyExecutor executor(&pool);
  runtime::CheckpointLog checkpoint(path);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> worker_started{false};
  std::atomic<bool> first_recorded{false};
  std::atomic<int> worker_waits{0};
  std::atomic<int> waits_in_time{0};
  // Polls `ready` for at most about five seconds.
  const auto wait_for = [](const std::function<bool()>& ready) {
    for (int polls = 0; polls < 5000; ++polls) {
      if (ready()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return ready();
  };
  std::vector<runtime::StudyExecutor::Shard> shards;
  for (std::uint64_t k = 0; k < 4; ++k) {
    runtime::StudyExecutor::Shard shard;
    shard.key = k;
    shard.work = [&, k] {
      if (std::this_thread::get_id() == caller) {
        (void)wait_for([&] {
          return worker_started.load(std::memory_order_acquire);
        });
      } else if (k >= 1) {
        worker_started.store(true, std::memory_order_release);
        worker_waits.fetch_add(1, std::memory_order_relaxed);
        if (wait_for([&] {
              return first_recorded.load(std::memory_order_acquire);
            })) {
          waits_in_time.fetch_add(1, std::memory_order_relaxed);
        }
      }
    };
    shard.save = [k] { return std::to_string(k); };
    shard.restore = [](const std::string&) { return true; };
    shards.push_back(std::move(shard));
  }
  executor.Execute(
      std::move(shards),
      [&](std::size_t done, std::size_t) {
        // Progress fires on the calling thread right after each record.
        if (done == 1 && checkpoint.size() == 1) {
          first_recorded.store(true, std::memory_order_release);
        }
      },
      &checkpoint);
  EXPECT_EQ(checkpoint.size(), 4u);
  // Execute drained the pool, so its tasks' counts are settled here.
  const int waits = worker_waits.load(std::memory_order_relaxed);
  EXPECT_GE(waits, 1);
  EXPECT_EQ(waits_in_time.load(std::memory_order_relaxed), waits);
  std::remove(path.c_str());
}

// A progress callback that throws at tick 3 unwinds Execute only after the
// pool has drained (its tasks reference Execute's frame): the log keeps
// exactly the three shards merged before the throw, and a resume from it
// recomputes the rest and folds to the uninterrupted result.
TEST(StudyExecutor, ThrowingProgressDrainsThePoolFirst) {
  const std::string path = testing::TempDir() + "manic_ckpt_throw.log";
  const std::string reference = testing::TempDir() + "manic_ckpt_ref.log";
  std::remove(path.c_str());
  std::remove(reference.c_str());
  EXPECT_THROW(RunCheckpointed(path, nullptr, 8,
                               [](std::size_t done, std::size_t) {
                                 if (done == 3) {
                                   throw std::runtime_error("progress");
                                 }
                               }),
               std::runtime_error);
  EXPECT_EQ(runtime::CheckpointLog(path).size(), 3u);

  const CheckpointedRun resumed = RunCheckpointed(path, nullptr, 8);
  const CheckpointedRun uninterrupted = RunCheckpointed(reference, nullptr, 8);
  EXPECT_EQ(resumed.works, 5);
  EXPECT_EQ(uninterrupted.works, 8);
  ASSERT_EQ(uninterrupted.merged.size(), 8u);
  EXPECT_EQ(resumed.merged, uninterrupted.merged);
  std::remove(path.c_str());
  std::remove(reference.c_str());
}

TEST(StudyExecutor, AWedgedPoolCannotStrandQueuedShards) {
  // One worker, four shards that all block on a gate only the calling
  // thread can open: the worker wedges on the shard it grabs, the rest sit
  // queued. The calling thread claims a queued shard instead of waiting,
  // opens the gate, and nothing is stranded or folded out of order.
  runtime::ThreadPool pool(1);
  runtime::StudyExecutor executor(&pool);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> release{false};
  std::atomic<int> caller_works{0};
  std::vector<std::uint64_t> merged;
  std::vector<runtime::StudyExecutor::Shard> shards;
  for (std::uint64_t k = 0; k < 4; ++k) {
    runtime::StudyExecutor::Shard shard;
    shard.key = k;
    shard.work = [&release, &caller_works, caller] {
      if (std::this_thread::get_id() == caller) {
        caller_works.fetch_add(1, std::memory_order_relaxed);
        release.store(true, std::memory_order_release);
      }
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    };
    shard.merge = [k, &merged] { merged.push_back(k); };
    shards.push_back(std::move(shard));
  }
  executor.Execute(std::move(shards));
  EXPECT_GE(caller_works.load(std::memory_order_relaxed), 1);
  // Where a shard ran never shows in the fold: canonical key order.
  EXPECT_EQ(merged, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace manic
