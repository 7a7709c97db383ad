#include "scenario/driver.h"

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bdrmap/bdrmap.h"
#include "infer/rolling.h"
#include "infer/streaming.h"
#include "runtime/seed_tree.h"
#include "sim/fault_hook.h"
#include "sim/faults/fault_injector.h"
#include "stats/calendar.h"

namespace manic::scenario {

using sim::Direction;
using stats::kSecPerDay;
using sim::TimeSec;

TslpSynthesizer::TslpSynthesizer(sim::SimNetwork& net, topo::LinkId link,
                                 double base_far_rtt_ms,
                                 double base_near_rtt_ms,
                                 std::uint64_t noise_key, Config config)
    : net_(&net),
      link_(link),
      base_far_(base_far_rtt_ms),
      base_near_(base_near_rtt_ms),
      noise_key_(noise_key),
      config_(config) {
  if (config.bin_width <= 0 || config.bin_width % sim::kSlotSec != 0 ||
      kSecPerDay % config.bin_width != 0) {
    throw std::invalid_argument(
        "TslpSynthesizer: bin_width must be a positive multiple of 300 s "
        "that divides a day");
  }
}

int TslpSynthesizer::Intervals() const {
  return static_cast<int>(kSecPerDay / config_.bin_width);
}

// TSLP probes every 5 minutes.
int TslpSynthesizer::RoundsPerBin() const {
  return static_cast<int>(config_.bin_width / sim::kSlotSec);
}

sim::DiurnalTable TslpSynthesizer::ShapeTable() const {
  return net_->ShapeTable(link_, Direction::kBtoA);
}

void TslpSynthesizer::Day(std::int64_t day, std::vector<float>& far,
                          std::vector<float>& near) const {
  std::vector<Round> rounds;
  LinkRounds(day, ShapeTable(), rounds);
  PairDay(day, rounds, far, near);
}

void TslpSynthesizer::LinkRounds(std::int64_t day,
                                 const sim::DiurnalTable& table,
                                 std::vector<Round>& rounds) const {
  // Each round carries its share of the bin's probes.
  const double samples_per_round =
      static_cast<double>(config_.samples_per_bin) / RoundsPerBin();
  // Bins tile the day's 5-minute grid, so bin-major round i is slot i.
  std::array<sim::QueueObservation, sim::kSlotsPerDay> obs;
  // The far-side reply rides the congested content->access queue.
  net_->ObservedQueueDay(link_, Direction::kBtoA, day, table, obs);
  rounds.resize(obs.size());
  // Below saturation the queue's loss is its constant floor, so most rounds
  // repeat the previous round's input: raise it only when its bits change.
  double p_lost = 0.0;
  std::uint64_t loss_bits = 0;
  for (std::size_t i = 0; i < obs.size(); ++i) {
    const auto bits = std::bit_cast<std::uint64_t>(obs[i].loss_prob);
    if (i == 0 || bits != loss_bits) {
      p_lost = std::pow(obs[i].loss_prob, samples_per_round);
      loss_bits = bits;
    }
    rounds[i] = {obs[i].delay_ms, p_lost};
  }
}

void TslpSynthesizer::PairDay(std::int64_t day, std::span<const Round> rounds,
                              std::vector<float>& far,
                              std::vector<float>& near) const {
  const int intervals = Intervals();
  const int per_bin = RoundsPerBin();
  far.assign(static_cast<std::size_t>(intervals),
             std::numeric_limits<float>::quiet_NaN());
  near.assign(static_cast<std::size_t>(intervals),
              std::numeric_limits<float>::quiet_NaN());
  if (rounds.size() != far.size() * static_cast<std::size_t>(per_bin)) return;
  const TimeSec day_start = day * kSecPerDay;
  // VP-scoped faults only apply when the synthesizer knows which VP it
  // stands in for; a null hook leaves every branch below untaken, so a
  // fault-free run is bit-identical to the pre-fault synthesizer.
  const sim::FaultHook* hook = vp_known_ ? net_->fault_hook() : nullptr;
  for (int s = 0; s < intervals; ++s) {
    const TimeSec t = day_start + s * config_.bin_width + config_.bin_width / 2;
    // Minimum of `samples_per_bin` jittered samples: approximated by a small
    // deterministic residual above the floor.
    const double jitter_far =
        config_.jitter_ms * stats::Rng::HashToUnit(noise_key_, t, 0xF) /
        config_.samples_per_bin;
    const double jitter_near =
        config_.jitter_ms * stats::Rng::HashToUnit(noise_key_, t, 0xE) /
        config_.samples_per_bin;
    // The bin keeps the *minimum*, so at regime edges (queue ramping within
    // the bin) the minimum of the constituent rounds is what the real
    // measurement records. Mirror that: keep the smallest round's queue.
    // Rounds where the VP is down send nothing: they contribute neither to
    // the bin minimum nor to the all-lost probability.
    double queue = std::numeric_limits<double>::infinity();
    double p_all_lost = 1.0;
    int rounds_up = 0;
    const Round* bin_rounds =
        rounds.data() + static_cast<std::size_t>(s) * per_bin;
    for (int k = 0; k < per_bin; ++k) {
      const TimeSec tk = day_start + s * config_.bin_width + k * 300;
      if (hook != nullptr && !hook->VpUpAt(vp_, tk)) continue;
      ++rounds_up;
      queue = std::min(queue, bin_rounds[k].delay_ms);
      p_all_lost *= bin_rounds[k].p_lost;
    }
    if (rounds_up == 0) continue;  // VP down for the whole bin: both missing
    if (stats::Rng::HashToUnit(noise_key_, t, 0xA) >
            config_.base_missing_prob + p_all_lost &&
        !(hook != nullptr &&
          hook->DropTsdbWriteAt(vp_, t,
                                stats::Rng::HashMix(noise_key_, 0xFA52)))) {
      far[static_cast<std::size_t>(s)] =
          static_cast<float>(base_far_ + queue + jitter_far);
    }
    if (stats::Rng::HashToUnit(noise_key_, t, 0xB) >
            config_.base_missing_prob &&
        !(hook != nullptr &&
          hook->DropTsdbWriteAt(vp_, t,
                                stats::Rng::HashMix(noise_key_, 0x4EA2)))) {
      near[static_cast<std::size_t>(s)] =
          static_cast<float>(base_near_ + jitter_near);
    }
  }
}

std::vector<DiscoveredLink> DiscoverVpLinks(UsBroadband& world, topo::VpId vp,
                                            stats::TimeSec t) {
  std::vector<DiscoveredLink> out;
  topo::Topology& topo = *world.topo;
  sim::SimNetwork& net = *world.net;
  bdrmap::Bdrmap bdrmap(net, vp);
  const bdrmap::BdrmapResult borders = bdrmap.RunCycle(t);
  const topo::VantagePoint& v = topo.vp(vp);
  const int vp_tz = topo.router(v.first_hop).utc_offset_hours;
  for (const bdrmap::BorderLink& border : borders.links) {
    const auto iface = topo.IfaceByAddr(border.far_addr);
    if (!iface) continue;
    const topo::LinkId link = topo.iface(*iface).link;
    const InterLinkInfo* info = world.FindLink(link);
    if (info == nullptr) continue;  // customer / tier-1 mesh link
    if (!world.tcp_set.contains(info->tcp)) continue;
    if (border.dests.empty()) continue;
    const bdrmap::BorderDest& dest = border.dests.front();
    const auto far_base =
        net.ExpectProbe(vp, dest.dst, dest.far_ttl, sim::FlowId{dest.flow}, t,
                        /*include_queues=*/false);
    const auto near_base =
        net.ExpectProbe(vp, dest.dst, dest.far_ttl - 1, sim::FlowId{dest.flow},
                        t, /*include_queues=*/false);
    if (!far_base.reachable || !near_base.reachable) continue;
    out.push_back({v.name, info, far_base.rtt_ms, near_base.rtt_ms, vp, vp_tz,
                   border.far_addr, dest.dst, dest.far_ttl, dest.flow});
  }
  return out;
}

namespace {

// A VP-link pair as the daily loop consumes it. `synth` only reads the
// network through const, stateless accessors, so many shards may evaluate
// their links concurrently once discovery (which does mutate the network)
// has finished. All pairs of one link share its LinkRounds and, because
// visibility churn is keyed per link, its visibility window.
struct VpLink {
  TslpSynthesizer synth;
  std::string vp_name;
  const InterLinkInfo* info = nullptr;
  // Visibility window (epoch days) for this VP-link pair.
  std::int64_t visible_from = 0;
  std::int64_t visible_until = 0;
  topo::VpId vp = 0;
  int vp_utc_offset = 0;
  bool is_comcast = false;

  bool VisibleOn(std::int64_t day) const {
    return day >= visible_from && day < visible_until;
  }
};

// The per-pair data-quality bookkeeping lives in infer/streaming.h so the
// serving plane's incremental engine can share it.
using QualityTally = infer::QualityTally;

// The prelude both entry points share: the resolved study window, the fault
// hook installed for the whole run (discovery included: a plan scheduling
// events before day 0 degrades bdrmap too), and discovery. The injector's
// queries are pure functions of (plan, seed, arguments), so a faulted study
// stays bit-identical at any thread count. The destructor clears the hook,
// also when a progress, record or stream callback throws, so the network
// never keeps a pointer to a destroyed injector.
class StudySetup {
 public:
  StudySetup(UsBroadband& world, const StudyOptions& options)
      : days(options.days > 0 ? options.days
                              : static_cast<int>(stats::StudyTotalDays())),
        warmup(options.warmup_days),
        world_(world),
        options_(options) {
    // Before the hook goes in: a throwing constructor runs no destructor.
    const infer::AutocorrConfig& bins = options.autocorr;
    if (bins.bin_width <= 0 || bins.bin_width % sim::kSlotSec != 0 ||
        static_cast<TimeSec>(bins.intervals_per_day) * bins.bin_width !=
            kSecPerDay) {
      throw std::invalid_argument(
          "StudyOptions::autocorr: bin_width must be a positive multiple of "
          "300 s and intervals_per_day bins must make one day");
    }
    if (options.fault_plan != nullptr) {
      injector_.emplace(*options.fault_plan,
                        runtime::SeedTree(options.seed).Child("faults"));
      world.net->SetFaultHook(&*injector_);
    }
  }
  ~StudySetup() {
    if (injector_.has_value()) world_.net->SetFaultHook(nullptr);
  }
  StudySetup(const StudySetup&) = delete;
  StudySetup& operator=(const StudySetup&) = delete;

  std::vector<VpLink> DiscoverPairs();

  const int days = 0;
  const int warmup = 0;

 private:
  UsBroadband& world_;
  const StudyOptions& options_;
  std::optional<sim::faults::FaultInjector> injector_;
};

// Discovery: bdrmap per VP, visibility churn, TSLP synthesizer setup. Runs
// serially (probing mutates the network's RNG and path cache); the noise
// seeds are derived from the root SeedTree by stable (vp, link) keys so the
// sharded phases never need the network's RNG.
std::vector<VpLink> StudySetup::DiscoverPairs() {
  UsBroadband& world = world_;
  const StudyOptions& options = options_;
  std::vector<VpLink> pairs;
  sim::SimNetwork& net = *world.net;
  const runtime::SeedTree seeds(options.seed);

  std::vector<topo::VpId> vps = world.vps;
  if (options.max_vps > 0 && vps.size() > options.max_vps) {
    vps.resize(options.max_vps);
  }

  const TimeSec discovery_t =
      -static_cast<TimeSec>(warmup) * kSecPerDay + 9 * stats::kSecPerHour;
  for (const topo::VpId vp : vps) {
    for (const DiscoveredLink& dl : DiscoverVpLinks(world, vp, discovery_t)) {
      // Deterministic visibility churn, keyed per link so every VP loses or
      // gains the link together (routing changes move the link itself): a
      // slice of links appears late, another disappears early. Links with a
      // scheduled congestion regime stay visible — the study's interesting
      // links remained measurable in the deployment too, and the Table 4
      // calibration depends on them.
      std::int64_t from = -warmup;
      std::int64_t until = days;
      if (!dl.info->scheduled_congested) {
        const double h = seeds.LeafUnit(dl.info->link, 0xC1);
        if (h < options.churn_fraction / 3) {
          from = static_cast<std::int64_t>(
              days *
              stats::Rng::HashToUnit(options.seed ^ 1, dl.info->link, 0xC2) *
              0.6);
        } else if (h < options.churn_fraction) {
          until = static_cast<std::int64_t>(
              days * (0.3 + 0.6 * stats::Rng::HashToUnit(options.seed ^ 2,
                                                         dl.info->link,
                                                         0xC3)));
        }
      }
      pairs.push_back(
          {TslpSynthesizer(
               net, vp, dl.info->link, dl.base_far_ms, dl.base_near_ms,
               seeds.Leaf(vp, dl.info->link),
               TslpSynthesizer::Config{.bin_width = options.autocorr.bin_width}),
           dl.vp_name, dl.info, from, until, vp, dl.vp_utc_offset,
           world.topo->vp(vp).host_as == UsBroadband::kComcast});
    }
  }
  return pairs;
}

// Pair indices grouped by the link they observe: links ascending, pairs in
// discovery order within a link.
std::vector<std::vector<std::size_t>> PairsByLink(
    const std::vector<VpLink>& pairs) {
  std::map<topo::LinkId, std::vector<std::size_t>> by_link;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    by_link[pairs[p].info->link].push_back(p);
  }
  std::vector<std::vector<std::size_t>> groups;
  groups.reserve(by_link.size());
  for (auto& [link, members] : by_link) groups.push_back(std::move(members));
  return groups;
}

// Fig 9 (Comcast, calendar year 2017): congested 15-minute intervals by
// VP-local hour, plus the consolidated panel in Pacific time. Eligibility is
// checked separately so callers only materialize a per-VP histogram map
// entry when the day actually contributes.
bool Fig9Eligible(const VpLink& pair, const infer::DayClassification& cls,
                  std::int64_t day) {
  if (!pair.is_comcast || !cls.recurring || !cls.congested) return false;
  const int month = stats::StudyMonthOfDay(day);
  return month >= 10 && month <= 21;
}

void AddFig9Intervals(const VpLink& pair, const infer::DayClassification& cls,
                      std::int64_t day, TimeSec bin_width,
                      analysis::TimeOfDayHistogram& vp_hist,
                      analysis::TimeOfDayHistogram& pacific_hist) {
  for (const int s : cls.congested_intervals) {
    const TimeSec t = day * kSecPerDay + static_cast<TimeSec>(s) * bin_width;
    vp_hist.Add(stats::LocalHour(t, pair.vp_utc_offset),
                stats::IsWeekend(stats::LocalWeekday(t, pair.vp_utc_offset)));
    pacific_hist.Add(stats::LocalHour(t, -8),
                     stats::IsWeekend(stats::LocalWeekday(t, -8)));
  }
}

// Ground truth for one (link, day), sampled at the start of every
// inference bin. `table` is the link's content->access ShapeTable.
bool TrulyCongestedDay(const sim::SimNetwork& net, topo::LinkId link,
                       const sim::DiurnalTable& table, std::int64_t day,
                       int intervals, TimeSec bin_width) {
  std::array<double, sim::kSlotsPerDay> u;
  net.MeanUtilizationDay(link, Direction::kBtoA, day, table, u);
  const auto slots_per_bin = static_cast<std::size_t>(bin_width / sim::kSlotSec);
  int congested_bins = 0;
  for (int s = 0; s < intervals; ++s) {
    if (u[static_cast<std::size_t>(s) * slots_per_bin] >= 0.96) {
      ++congested_bins;
    }
  }
  return static_cast<double>(congested_bins) / intervals >=
         analysis::kDayLinkThreshold;
}

void Notify(const StudyOptions& options, const char* phase, std::size_t done,
            std::size_t total) {
  if (options.progress) options.progress({phase, done, total});
}

// ---- the daily loop ----------------------------------------------------------
// Shard = one link with all of its (VP, link) pairs, optionally split into
// month-sized day chunks. Each shard evaluates the link's rounds once per
// day, then synthesizes and classifies every pair's row (replaying up to
// window_days - 1 preceding days to warm the rolling window, whose state is
// a pure function of its last window_days inputs) and folds the pairs'
// verdicts into the day's infer::LinkDayFold in pair-index order. Chunks
// append to the link's series in chunk order, so every floating-point sum
// associates the same way at any shard granularity and thread count.

struct PairOut {
  analysis::TimeOfDayHistogram vp_hist;
  analysis::TimeOfDayHistogram pacific_hist;
  QualityTally quality;
};
// A link's fold for every day from `start` on (a day no pair classified has
// no contributors), and one PairOut per member pair.
struct LinkOut {
  std::int64_t start = 0;
  std::vector<infer::LinkDayFold> days;
  std::vector<PairOut> pairs;
};

// Shard checkpoint blobs: the version, the link's pair count, the shard's
// day series, then each pair's histograms and quality tally. Everything is
// integers or bit-cast doubles, so a restored LinkOut is the same bytes the
// worker produced — resume equals rerun exactly. The version guard makes
// stale logs recompute, not crash: version 1 held one pair's output per
// (VP, link) shard, version 2 a day series per pair.
constexpr std::uint64_t kShardBlobVersion = 3;

void SaveHist(runtime::BlobWriter& w,
              const analysis::TimeOfDayHistogram& hist) {
  for (const bool weekend : {false, true}) {
    for (int h = 0; h < 24; ++h) w.PutI64(hist.Count(h, weekend));
  }
}

bool RestoreHist(runtime::BlobReader& r, analysis::TimeOfDayHistogram& hist) {
  for (const bool weekend : {false, true}) {
    for (int h = 0; h < 24; ++h) {
      std::int64_t n = 0;
      if (!r.GetI64(&n)) return false;
      if (n != 0) hist.AddCount(h, weekend, n);
    }
  }
  return true;
}

void SavePairOut(runtime::BlobWriter& w, const PairOut& out) {
  SaveHist(w, out.vp_hist);
  SaveHist(w, out.pacific_hist);
  const QualityTally& q = out.quality;
  w.PutI64(q.far_present);
  w.PutI64(q.far_total);
  w.PutI64(q.near_present);
  w.PutI64(q.near_total);
  w.PutI64(q.prefix_gap);
  w.PutI64(q.suffix_gap);
  w.PutI64(q.max_gap);
  w.PutI64(q.days_observed);
  w.PutI64(q.churn);
  w.PutU64((q.any_bin ? 1u : 0u) | (q.has_days ? 2u : 0u) |
           (q.first_day_observed ? 4u : 0u) |
           (q.last_day_observed ? 8u : 0u));
}

bool RestorePairOut(runtime::BlobReader& r, PairOut& out) {
  if (!RestoreHist(r, out.vp_hist)) return false;
  if (!RestoreHist(r, out.pacific_hist)) return false;
  QualityTally& q = out.quality;
  std::uint64_t flags = 0;
  if (!r.GetI64(&q.far_present) || !r.GetI64(&q.far_total) ||
      !r.GetI64(&q.near_present) || !r.GetI64(&q.near_total) ||
      !r.GetI64(&q.prefix_gap) || !r.GetI64(&q.suffix_gap) ||
      !r.GetI64(&q.max_gap) || !r.GetI64(&q.days_observed) ||
      !r.GetI64(&q.churn) || !r.GetU64(&flags)) {
    return false;
  }
  q.any_bin = (flags & 1u) != 0;
  q.has_days = (flags & 2u) != 0;
  q.first_day_observed = (flags & 4u) != 0;
  q.last_day_observed = (flags & 8u) != 0;
  return true;
}

std::string SaveLinkOut(const LinkOut& out) {
  runtime::BlobWriter w;
  w.PutU64(kShardBlobVersion);
  w.PutU64(out.pairs.size());
  w.PutU64(out.days.size());
  for (const infer::LinkDayFold& d : out.days) {
    w.PutU64(d.contributors | static_cast<std::uint64_t>(d.asserting) << 32);
    w.PutDouble(d.fraction_sum);
  }
  for (const PairOut& pair : out.pairs) SavePairOut(w, pair);
  return w.Take();
}

// Restores a link's whole output, or none: `out` keeps its contents unless
// the whole blob parses and holds exactly out.pairs.size() pairs.
bool RestoreLinkOut(const std::string& blob, LinkOut& out) {
  runtime::BlobReader r(blob);
  std::uint64_t version = 0;
  std::uint64_t n_pairs = 0;
  std::uint64_t n_days = 0;
  if (!r.GetU64(&version) || version != kShardBlobVersion ||
      !r.GetU64(&n_pairs) || n_pairs != out.pairs.size() ||
      !r.GetU64(&n_days) || n_days > (1u << 24)) {
    return false;
  }
  LinkOut restored{out.start, {}, std::vector<PairOut>(out.pairs.size())};
  for (std::uint64_t i = 0; i < n_days; ++i) {
    std::uint64_t counts = 0;
    infer::LinkDayFold d;
    if (!r.GetU64(&counts) || !r.GetDouble(&d.fraction_sum)) return false;
    d.contributors = static_cast<std::uint32_t>(counts & 0xFFFFFFFFu);
    d.asserting = static_cast<std::uint32_t>(counts >> 32);
    restored.days.push_back(d);
  }
  for (PairOut& pair : restored.pairs) {
    if (!RestorePairOut(r, pair)) return false;
  }
  if (!r.AtEnd()) return false;
  out = std::move(restored);
  return true;
}

void RunDailyLoop(UsBroadband& world, const StudyOptions& options,
                  const std::vector<VpLink>& pairs, int days,
                  runtime::Metrics& metrics, StudyResult& result) {
  sim::SimNetwork& net = *world.net;
  const int intervals =
      static_cast<int>(kSecPerDay / options.autocorr.bin_width);
  const std::int64_t final_month_start =
      days - stats::DaysInStudyMonth(stats::StudyMonthOfDay(days - 1));
  const std::vector<std::vector<std::size_t>> link_groups = PairsByLink(pairs);
  result.links_observed = link_groups.size();

  // One thread means no pool: the caller runs shards and truth tasks while
  // it waits, so even a one-worker pool would run two threads. The executor
  // then runs every shard on the calling thread, and so does the truth
  // phase.
  const int threads = options.runtime.ResolvedThreads();
  std::optional<runtime::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads, &metrics);
  runtime::StudyExecutor executor(pool ? &*pool : nullptr, &metrics);

  // ---- phase: synthesize + classify, one shard per (link, month chunk) ----
  std::vector<LinkOut> merged(link_groups.size());
  {
    auto timer = metrics.Phase("classify");
    const std::int64_t chunk_days =
        options.runtime.months_per_shard > 0
            ? static_cast<std::int64_t>(options.runtime.months_per_shard) * 30
            : std::numeric_limits<std::int64_t>::max();
    const std::int64_t warm_days =
        static_cast<std::int64_t>(options.autocorr.window_days - 1);

    std::vector<runtime::StudyExecutor::Shard> shards;
    std::vector<std::unique_ptr<LinkOut>> outputs;
    for (std::size_t g = 0; g < link_groups.size(); ++g) {
      const std::vector<std::size_t>& members = link_groups[g];
      merged[g].pairs.resize(members.size());
      // The span of days any of the link's pairs is visible.
      std::int64_t begin = std::numeric_limits<std::int64_t>::max();
      std::int64_t end = std::numeric_limits<std::int64_t>::min();
      for (const std::size_t p : members) {
        begin = std::min(begin, pairs[p].visible_from);
        end = std::max(end, pairs[p].visible_until);
      }
      end = std::min<std::int64_t>(end, days);
      // Merges run between works on the calling thread, so a link series
      // grown there would fragment the heap the works allocate from: size
      // each one up front (a fold per day in [max(begin, 0), end)).
      const std::int64_t first_day = std::max<std::int64_t>(begin, 0);
      if (end > first_day) {
        merged[g].days.reserve(static_cast<std::size_t>(end - first_day));
      }
      std::int64_t c0 = begin;
      for (std::uint64_t chunk = 0; c0 < end; ++chunk) {
        const std::int64_t c1 =
            c0 > end - chunk_days ? end : c0 + chunk_days;  // overflow-safe
        auto out = std::make_unique<LinkOut>();
        out->start = std::max<std::int64_t>(c0, 0);
        out->pairs.resize(members.size());
        LinkOut* buffer = out.get();
        outputs.push_back(std::move(out));
        shards.push_back(runtime::StudyExecutor::Shard{
            (static_cast<std::uint64_t>(g) << 16) | chunk,
            [&options, &pairs, &members, buffer, c0, c1, warm_days] {
              std::vector<infer::RollingAutocorr> rolling(
                  members.size(), infer::RollingAutocorr(options.autocorr));
              std::vector<TslpSynthesizer::Round> rounds;
              std::vector<float> far_row, near_row;
              const TslpSynthesizer& link_synth = pairs[members.front()].synth;
              const sim::DiurnalTable table = link_synth.ShapeTable();
              for (std::int64_t day = c0 - warm_days; day < c1; ++day) {
                const bool emit = day >= buffer->start;
                bool have_rounds = false;
                infer::LinkDayFold fold;
                for (std::size_t i = 0; i < members.size(); ++i) {
                  const VpLink& pair = pairs[members[i]];
                  if (!pair.VisibleOn(day)) continue;
                  if (!have_rounds) {
                    link_synth.LinkRounds(day, table, rounds);
                    have_rounds = true;
                  }
                  pair.synth.PairDay(day, rounds, far_row, near_row);
                  rolling[i].AddDay(far_row, near_row);
                  PairOut& out = buffer->pairs[i];
                  if (emit) out.quality.AddDay(far_row, near_row);
                  if (!emit || !rolling[i].WindowFull()) continue;
                  const infer::DayClassification cls = rolling[i].Classify();
                  fold.Add(cls.recurring, cls.fraction);
                  if (Fig9Eligible(pair, cls, day)) {
                    AddFig9Intervals(pair, cls, day,
                                     options.autocorr.bin_width, out.vp_hist,
                                     out.pacific_hist);
                  }
                }
                if (emit) buffer->days.push_back(fold);
              }
            },
            [&merged, g, buffer] {
              LinkOut& dst = merged[g];
              if (dst.days.empty()) dst.start = buffer->start;
              dst.days.insert(dst.days.end(), buffer->days.begin(),
                              buffer->days.end());
              for (std::size_t i = 0; i < dst.pairs.size(); ++i) {
                const PairOut& src = buffer->pairs[i];
                dst.pairs[i].vp_hist.Merge(src.vp_hist);
                dst.pairs[i].pacific_hist.Merge(src.pacific_hist);
                dst.pairs[i].quality.Append(src.quality);
              }
            },
            [buffer] { return SaveLinkOut(*buffer); },
            [buffer](const std::string& blob) {
              return RestoreLinkOut(blob, *buffer);
            }});
        c0 = c1;
      }
    }
    std::optional<runtime::CheckpointLog> checkpoint;
    if (!options.checkpoint_path.empty()) {
      checkpoint.emplace(options.checkpoint_path);
    }
    executor.Execute(
        shards,
        [&](std::size_t done, std::size_t total) {
          Notify(options, "classify", done, total);
        },
        checkpoint.has_value() ? &*checkpoint : nullptr);
    result.checkpoint_refused = checkpoint && !checkpoint->writable();
  }

  // ---- phase: aggregate (calling thread, canonical order) ------------------
  // Day-outer, link-ascending emission, so DayLinkTable ingests records in
  // one order.
  struct TruthTask {
    std::int64_t day = 0;
    std::uint32_t link_index = 0;  // into truth_links
    bool inferred = false;
  };
  std::vector<TruthTask> truth_tasks;
  std::vector<topo::LinkId> truth_links;
  {
    auto timer = metrics.Phase("aggregate");
    constexpr auto kNoTruth = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> truth_index(link_groups.size(), kNoTruth);
    std::vector<bool> seen_ever(link_groups.size()),
        seen_final(link_groups.size());
    for (std::int64_t day = 0; day < days; ++day) {
      for (std::size_t g = 0; g < link_groups.size(); ++g) {
        const LinkOut& series = merged[g];
        const std::int64_t idx = day - series.start;
        if (idx < 0 || idx >= static_cast<std::int64_t>(series.days.size())) {
          continue;
        }
        const infer::LinkDayFold& fold =
            series.days[static_cast<std::size_t>(idx)];
        if (fold.contributors == 0) continue;
        const InterLinkInfo* info = pairs[link_groups[g].front()].info;
        seen_ever[g] = true;
        if (day >= final_month_start) seen_final[g] = true;
        const analysis::DayLinkRecord record{
            day, info->link, info->access, info->tcp, fold.Fraction(), true};
        result.day_links.Add(record);
        if (options.on_day_link) options.on_day_link(record);
        if (info->scheduled_congested) {
          if (truth_index[g] == kNoTruth) {
            truth_index[g] = static_cast<std::uint32_t>(truth_links.size());
            truth_links.push_back(info->link);
          }
          truth_tasks.push_back({day, truth_index[g], fold.Congested()});
        } else if (fold.Congested()) {
          // Links without a demand model are never truly congested.
          ++result.truth_fp;
        } else {
          ++result.truth_tn;
        }
      }
      Notify(options, "aggregate", static_cast<std::size_t>(day) + 1,
             static_cast<std::size_t>(days));
    }
    // Pairs that never produced a post-warmup row add no quality, so
    // `link_quality` only covers measured links.
    for (std::size_t g = 0; g < link_groups.size(); ++g) {
      const InterLinkInfo* info = pairs[link_groups[g].front()].info;
      infer::LinkQualityAccumulator quality;
      bool measured = false;
      for (std::size_t i = 0; i < link_groups[g].size(); ++i) {
        const PairOut& out = merged[g].pairs[i];
        if (out.vp_hist.Total(false) + out.vp_hist.Total(true) > 0) {
          result.comcast_vp_hists[pairs[link_groups[g][i]].vp_name].Merge(
              out.vp_hist);
        }
        result.comcast_consolidated.Merge(out.pacific_hist);
        if (out.quality.far_total > 0) {
          quality.Add(out.quality);
          measured = true;
        }
      }
      if (measured) result.link_quality[info->link] = quality.Finish(days);
      if (seen_ever[g]) ++result.links_ever_by_access[info->access];
      if (seen_final[g]) ++result.links_final_month_by_access[info->access];
    }
  }

  // ---- phase: ground truth (parallel; integer tallies are order-free) ------
  {
    auto timer = metrics.Phase("truth");
    // One shape table per link, shared read-only by that link's tasks.
    std::vector<sim::DiurnalTable> tables;
    tables.reserve(truth_links.size());
    for (const topo::LinkId link : truth_links) {
      tables.push_back(net.ShapeTable(link, Direction::kBtoA));
    }
    std::atomic<long long> tp{0}, fp{0}, fn{0}, tn{0};
    const auto tally = [&](std::size_t i) {
      const TruthTask& task = truth_tasks[i];
      const bool truly = TrulyCongestedDay(
          net, truth_links[task.link_index], tables[task.link_index], task.day,
          intervals, options.autocorr.bin_width);
      if (truly && task.inferred) tp.fetch_add(1, std::memory_order_relaxed);
      if (truly && !task.inferred) fn.fetch_add(1, std::memory_order_relaxed);
      if (!truly && task.inferred) fp.fetch_add(1, std::memory_order_relaxed);
      if (!truly && !task.inferred) tn.fetch_add(1, std::memory_order_relaxed);
    };
    if (pool.has_value()) {
      pool->ParallelFor(truth_tasks.size(), tally, /*grain=*/16);
    } else {
      for (std::size_t i = 0; i < truth_tasks.size(); ++i) tally(i);
    }
    result.truth_tp += tp.load(std::memory_order_relaxed);
    result.truth_fp += fp.load(std::memory_order_relaxed);
    result.truth_fn += fn.load(std::memory_order_relaxed);
    result.truth_tn += tn.load(std::memory_order_relaxed);
    Notify(options, "truth", truth_tasks.size(), truth_tasks.size());
  }
}

}  // namespace

StudyResult RunLongitudinalStudy(UsBroadband& world,
                                 const StudyOptions& options) {
  StudyResult result;
  runtime::Metrics scratch_metrics;
  runtime::Metrics& metrics = options.runtime.metrics != nullptr
                                  ? *options.runtime.metrics
                                  : scratch_metrics;
  metrics.SetThreads(options.runtime.ResolvedThreads());

  StudySetup setup(world, options);
  std::vector<VpLink> pairs;
  {
    auto timer = metrics.Phase("discover");
    pairs = setup.DiscoverPairs();
    Notify(options, "discover", pairs.size(), pairs.size());
  }
  result.vp_link_pairs = pairs.size();
  result.probes_for_discovery = world.net->ProbesSent();
  RunDailyLoop(world, options, pairs, setup.days, metrics, result);
  return result;
}

void ExportStudyStream(UsBroadband& world, const StudyOptions& options,
                       const StudyStreamFn& fn) {
  // The same setup as RunLongitudinalStudy, so the exported rows carry
  // identical fault effects (discovery degradation included).
  StudySetup setup(world, options);
  const std::vector<VpLink> pairs = setup.DiscoverPairs();

  // Day-major, pair-minor: the order a live deployment reports rows in, so a
  // stream consumer sees day boundaries the way the batch study counts them.
  // Each link's rounds are evaluated once per day, by the first of its pairs
  // that is visible, and reused by the rest.
  const std::vector<std::vector<std::size_t>> link_groups = PairsByLink(pairs);
  std::vector<std::size_t> group_of(pairs.size());
  for (std::size_t g = 0; g < link_groups.size(); ++g) {
    for (const std::size_t p : link_groups[g]) group_of[p] = g;
  }
  std::vector<sim::DiurnalTable> tables;
  tables.reserve(link_groups.size());
  for (const std::vector<std::size_t>& members : link_groups) {
    tables.push_back(pairs[members.front()].synth.ShapeTable());
  }
  std::vector<std::vector<TslpSynthesizer::Round>> rounds(link_groups.size());
  std::vector<std::int64_t> rounds_day(link_groups.size(),
                                       std::numeric_limits<std::int64_t>::min());
  std::vector<float> far_row, near_row;
  for (std::int64_t day = -setup.warmup; day < setup.days; ++day) {
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      const VpLink& pair = pairs[p];
      if (!pair.VisibleOn(day)) continue;
      const std::size_t g = group_of[p];
      if (rounds_day[g] != day) {
        pair.synth.LinkRounds(day, tables[g], rounds[g]);
        rounds_day[g] = day;
      }
      pair.synth.PairDay(day, rounds[g], far_row, near_row);
      fn(pair.vp, pair.info->link, day, far_row, near_row);
    }
  }
}

}  // namespace manic::scenario
