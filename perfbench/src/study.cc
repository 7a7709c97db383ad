// study_us_broadband: the paper's Table 3 pipeline. Each iteration builds
// the U.S. broadband world (set-up) and runs RunLongitudinalStudy over the
// full 22-month window on kStudyThreads workers. The input is the paper's
// configuration (world seed 2016, study seed 99), not the command-line
// seed: its day-link confusion matrix and record stream are known answers
// (expected.json), checked on every iteration.
#include <cstdlib>
#include <map>
#include <string>

#include "analysis/daylink.h"
#include "common.h"
#include "infer/rolling.h"
#include "runtime/metrics.h"
#include "scenario/driver.h"
#include "stats/calendar.h"

namespace perfbench {

using namespace manic;

namespace {

constexpr int kWorldBuilds = 3;

// A phase's wall_s or cpu_s from runtime::Metrics::Json(), which is the
// only read-out Metrics offers for phase timers; 0 when the phase is absent.
double PhaseField(const std::string& json, const std::string& phase,
                  const std::string& field) {
  const std::size_t at = json.find("\"name\":\"" + phase + "\"");
  if (at == std::string::npos) return 0.0;
  const std::size_t key = json.find("\"" + field + "\":", at);
  if (key == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + key + field.size() + 3, nullptr);
}

scenario::StudyOptions BaseOptions(const Options& o) {
  scenario::StudyOptions opts;
  opts.runtime.threads = kStudyThreads;
  if (o.tiny) {
    opts.days = 90;
    opts.max_vps = 2;
  }
  return opts;
}

// Per-layer calls timed outside RunLongitudinalStudy, each on a freshly
// built world (discovery mutates the network): bdrmap discovery per VP,
// then the exported measurement rows with rolling autocorrelation folded
// into the export callback.
void StudyLayers(const scenario::StudyOptions& opts, Tracer* tracer,
                 Result* r) {
  {
    scenario::UsBroadband world = scenario::MakeUsBroadband();
    std::vector<topo::VpId> vps = world.vps;
    if (opts.max_vps > 0 && vps.size() > opts.max_vps) vps.resize(opts.max_vps);
    const stats::TimeSec t =
        -static_cast<stats::TimeSec>(opts.warmup_days) * stats::kSecPerDay +
        9 * stats::kSecPerHour;
    for (std::size_t i = 0; i < vps.size(); ++i) {
      Scope span(tracer, "bdrmap.DiscoverVpLinks", OpId(Op::kDiscover, i));
      const auto links = scenario::DiscoverVpLinks(world, vps[i], t);
      (void)links;
    }
    r->Set("bdrmap.discover_ms_per_vp",
           tracer->Seconds("bdrmap.DiscoverVpLinks") * 1e3 /
               static_cast<double>(vps.size()),
           vps.size());
  }
  scenario::UsBroadband world = scenario::MakeUsBroadband();
  std::map<std::uint64_t, infer::RollingAutocorr> rolling;
  std::uint64_t rows = 0;
  std::int64_t infer_ns = 0;
  {
    Scope span(tracer, "scenario.ExportStudyStream", OpId(Op::kExport, 0));
    scenario::ExportStudyStream(
        world, opts,
        [&](topo::VpId vp, topo::LinkId link, std::int64_t,
            std::span<const float> far, std::span<const float> near) {
          ++rows;
          const std::uint64_t key = (static_cast<std::uint64_t>(vp) << 32) | link;
          auto& roll = rolling.try_emplace(key, opts.autocorr).first->second;
          const std::int64_t t0 = NowNs();
          roll.AddDay(far, near);
          if (roll.WindowFull()) {
            const infer::DayClassification c = roll.Classify();
            (void)c;
          }
          infer_ns += NowNs() - t0;
        });
    tracer->Fold("infer.RollingAutocorr.AddDay+Classify", infer_ns, rows);
  }
  const double rows_d = static_cast<double>(rows);
  r->Set("scenario.synth_us_per_pair_day",
         (tracer->Seconds("scenario.ExportStudyStream") - Seconds(infer_ns)) *
             1e6 / rows_d,
         rows);
  r->Set("infer.rolling_us_per_pair_day", Seconds(infer_ns) * 1e6 / rows_d,
         rows);
}

}  // namespace

Result RunStudy(const Options& o, Tracer* tracer) {
  Result r;
  runtime::Metrics metrics;
  scenario::StudyOptions opts = BaseOptions(o);
  opts.runtime.metrics = &metrics;

  std::vector<double> setup_s, study_s, traced_study_s;
  // Of the untraced iterations: CPU time and day-link records.
  double study_cpu_s = 0.0;
  std::uint64_t records = 0;
  const Usage usage0 = Usage::Now();
  const std::int64_t start_ns = NowNs();
  // Iterations run while the next one is expected to end within the run's
  // seconds. The traced run alternates untraced and traced iterations, at
  // least one of each, so the tracing overhead is measured in one process.
  const std::uint64_t min_iters = tracer != nullptr ? 2 : 1;
  for (std::uint64_t iter = 0;; ++iter) {
    const double elapsed = Seconds(NowNs() - start_ns);
    if (iter >= min_iters &&
        elapsed * static_cast<double>(iter + 1) / static_cast<double>(iter) >
            o.seconds) {
      break;
    }
    Tracer* tr = tracer != nullptr && iter % 2 == 1 ? tracer : nullptr;
    Scope pass(tr, "study_iteration", OpId(Op::kStudy, iter));
    // The world takes milliseconds to build, so each iteration builds it
    // kWorldBuilds times for a steadier set-up median and keeps the last.
    scenario::UsBroadband world;
    for (int b = 0; b < kWorldBuilds; ++b) {
      world = scenario::UsBroadband();  // frees the previous build, untimed
      const std::int64_t t0 = NowNs();
      {
        Scope span(tr, "scenario.MakeUsBroadband", OpId(Op::kStudy, iter));
        world = scenario::MakeUsBroadband();
      }
      setup_s.push_back(Seconds(NowNs() - t0));
    }

    Digest digest;
    std::uint64_t n = 0;
    opts.on_day_link = [&](const analysis::DayLinkRecord& rec) {
      digest.AddValue(rec.day);
      digest.AddValue(rec.link_key);
      digest.AddValue(rec.access);
      digest.AddValue(rec.tcp);
      digest.AddValue(rec.fraction);
      digest.AddValue(static_cast<std::uint8_t>(rec.observed));
      ++n;
    };
    metrics.Reset();
    const double cpu0 = runtime::ProcessCpuSeconds();
    const std::int64_t t2 = NowNs();
    scenario::StudyResult result;
    {
      Scope span(tr, "scenario.RunLongitudinalStudy", OpId(Op::kStudy, iter));
      result = scenario::RunLongitudinalStudy(world, opts);
    }
    const double wall = Seconds(NowNs() - t2);
    if (tr != nullptr) {
      traced_study_s.push_back(wall);
    } else {
      study_s.push_back(wall);
      study_cpu_s += runtime::ProcessCpuSeconds() - cpu0;
      records += n;
    }

    ++r.attempted;
    const Expected& want = o.expect;
    const bool matrix_ok =
        result.truth_tp == want.tp && result.truth_fp == want.fp &&
        result.truth_fn == want.fn && result.truth_tn == want.tn;
    if (!matrix_ok || digest.Hex() != want.digest) {
      ++r.failed;
      r.Fail("study iteration " + std::to_string(iter) +
             ": tp=" + std::to_string(result.truth_tp) +
             " fp=" + std::to_string(result.truth_fp) +
             " fn=" + std::to_string(result.truth_fn) +
             " tn=" + std::to_string(result.truth_tn) +
             " digest=" + digest.Hex() + " (expected tp=" +
             std::to_string(want.tp) + " fp=" + std::to_string(want.fp) +
             " fn=" + std::to_string(want.fn) + " tn=" + std::to_string(want.tn) +
             " digest=" + want.digest + ")");
    }
  }
  const Usage usage1 = Usage::Now();

  double study_total = 0.0;
  for (double s : study_s) study_total += s;
  const auto iters = study_s.size();
  r.Set("setup_s", Median(setup_s), setup_s.size());
  r.Set("op_ms_p50", Median(study_s) * 1e3, iters);
  r.Set("op_ms_p90", Percentile(study_s, 0.9) * 1e3, iters);
  r.Set("throughput_per_s", static_cast<double>(records) / study_total, iters);
  r.Set("cpu_us_per_unit", study_cpu_s * 1e6 / static_cast<double>(records),
        iters);

  if (tracer != nullptr) {
    // Phase timers of the last iteration.
    const std::string json = metrics.Json();
    r.Set("study.discover_s", PhaseField(json, "discover", "wall_s"));
    r.Set("study.classify_s", PhaseField(json, "classify", "wall_s"));
    r.Set("study.classify_cpu_s", PhaseField(json, "classify", "cpu_s"));
    r.Set("study.aggregate_s", PhaseField(json, "aggregate", "wall_s"));
    r.Set("study.truth_s", PhaseField(json, "truth", "wall_s"));
    r.Set("runtime.tasks", static_cast<double>(metrics.tasks()));
    r.Set("runtime.steals", static_cast<double>(metrics.steals()));
    r.Set("runtime.peak_queue_depth",
          static_cast<double>(metrics.peak_queue_depth()));
    SetProcMetrics(&r, usage0, usage1);
    r.Set("unattributed_frac", tracer->UnattributedFrac("study_iteration"));
    const double untraced = Median(study_s);
    r.Set("trace.overhead_frac", (Median(traced_study_s) - untraced) / untraced,
          traced_study_s.size());
    StudyLayers(BaseOptions(o), tracer, &r);
  }
  return r;
}

}  // namespace perfbench
