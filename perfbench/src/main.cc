// manic_perfbench: one workload per process.
//
//   manic_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--tiny] [--out-dir <dir>]
//                   [--expect-confusion tp,fp,fn,tn] [--expect-digest <hex>]
//                   [--expect-tiny-confusion tp,fp,fn,tn]
//                   [--expect-tiny-digest <hex>]
//
// Prints a human-readable report (each metric with its unit and sample
// count), then, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run (--trace 1), whose spans go to
// <out-dir>/trace-<workload>-<seed>.jsonl, and those of the smoke runs of
// the other workloads to trace-<workload>-<seed>.smoke-<other>.jsonl.
// Exits 1 when a check fails.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"

namespace {

using perfbench::Expected;
using perfbench::Options;
using perfbench::Result;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json and README.md.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"op_ms_p50", "ms"},
    {"cpu_us_per_unit", "us"},
};

// The workload's tail latency and rate come first: they are end-to-end
// figures, but on a host with steal time they moved by up to 2x between
// identical runs, so they are reported here, without a bound.
const std::vector<MetricDef> kPerLayer = {
    {"op_ms_p90", "ms"},
    {"throughput_per_s", "1/s"},
    {"study.discover_s", "s"},
    {"study.classify_s", "s"},
    {"study.classify_cpu_s", "s"},
    {"study.aggregate_s", "s"},
    {"study.truth_s", "s"},
    {"runtime.tasks", "count"},
    {"runtime.steals", "count"},
    {"runtime.peak_queue_depth", "count"},
    {"bdrmap.discover_ms_per_vp", "ms"},
    {"scenario.synth_us_per_pair_day", "us"},
    {"infer.rolling_us_per_pair_day", "us"},
    {"codec.encode_submit_ns_per_sample", "ns"},
    {"codec.decode_submit_ns_per_sample", "ns"},
    {"session.submit_ns_per_sample", "ns"},
    {"service.submit_ns_per_sample", "ns"},
    {"ingest.push_ns_per_sample", "ns"},
    {"wal.append_us_per_batch", "us"},
    {"wal.sync_ms", "ms"},
    {"ingest.close_wait_us", "us"},
    {"daemon.flush_ms_p50", "ms"},
    {"daemon.flush_ms_p90", "ms"},
    {"engine.ingest_ns_per_sample", "ns"},
    {"engine.close_us_per_day_link", "us"},
    {"service.query_point_ns", "ns"},
    {"service.query_range_ns", "ns"},
    {"session.query_point_ns", "ns"},
    {"daemon.query_overhead_us", "us"},
    {"wal.recover_s", "s"},
    {"wal.segments", "count"},
    {"wal.records", "count"},
    {"wal.samples", "count"},
    {"proc.user_cpu_s", "s"},
    {"proc.sys_cpu_s", "s"},
    {"proc.vol_ctx_switches", "count"},
    {"proc.invol_ctx_switches", "count"},
    {"service.samples_accepted", "count"},
    {"service.samples_late", "count"},
    {"service.samples_rejected", "count"},
    {"service.samples_shed", "count"},
    {"service.days_closed", "count"},
    {"service.verdict_rows", "count"},
    {"unattributed_frac", "frac"},
    {"trace.overhead_frac", "frac"},
    {"scenario.self_s", "s"},
    {"bdrmap.self_s", "s"},
    {"infer.self_s", "s"},
    {"codec.self_s", "s"},
    {"session.self_s", "s"},
    {"service.self_s", "s"},
    {"daemon.self_s", "s"},
    {"ingest.self_s", "s"},
    {"engine.self_s", "s"},
    {"wal.self_s", "s"},
};

const std::vector<std::string> kWorkloads = {
    "study_us_broadband", "serve_ingest_wal", "serve_query"};

Result RunWorkload(const std::string& workload, const Options& o,
                   perfbench::Tracer* tracer) {
  if (workload == "study_us_broadband") return perfbench::RunStudy(o, tracer);
  if (workload == "serve_ingest_wal") return perfbench::RunIngest(o, tracer);
  return perfbench::RunQuery(o, tracer);
}

void WriteTrace(const perfbench::Tracer& tracer, const std::string& path,
                Result* r) {
  if (!tracer.WriteJsonl(path)) r->Fail("cannot write " + path);
  std::printf("trace: %zu spans in %s\n", tracer.spans().size(), path.c_str());
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload study_us_broadband|serve_ingest_wal|"
               "serve_query --seed <n> --seconds <s> --trace <0|1> [--tiny] "
               "[--out-dir <dir>] [--expect-[tiny-]confusion tp,fp,fn,tn] "
               "[--expect-[tiny-]digest <hex>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--out-dir" && has_value) {
      o.out_dir = argv[++i];
    } else if ((arg == "--expect-confusion" || arg == "--expect-tiny-confusion") &&
               has_value) {
      Expected& e = arg == "--expect-confusion" ? o.expect : o.expect_tiny;
      if (std::sscanf(argv[++i], "%lld,%lld,%lld,%lld", &e.tp, &e.fp, &e.fn,
                      &e.tn) != 4) {
        return Usage(argv[0]);
      }
    } else if (arg == "--expect-digest" && has_value) {
      o.expect.digest = argv[++i];
    } else if (arg == "--expect-tiny-digest" && has_value) {
      o.expect_tiny.digest = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (o.seconds <= 0.0) return Usage(argv[0]);
  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);

  if (std::find(kWorkloads.begin(), kWorkloads.end(), o.workload) ==
      kWorkloads.end()) {
    return Usage(argv[0]);
  }
  perfbench::Tracer tracer;
  perfbench::Tracer* tr = o.trace ? &tracer : nullptr;
  Result r = RunWorkload(o.workload, o, tr);
  r.Set("peak_rss_mb", perfbench::PeakRssMb());
  if (tr != nullptr) {
    // The workload's own self times, from its own spans only.
    for (const auto& [layer, s] : tracer.SelfSecondsByLayer()) {
      r.Set(layer + ".self_s", s);
    }
    const std::string stem = o.out_dir + "/trace-" + o.workload + "-" +
                             std::to_string(o.seed);
    WriteTrace(tracer, stem + ".jsonl", &r);
    // A layer this workload does not exercise is timed by the traced run of
    // the workload that does, at smoke size and with a tracer of its own,
    // so that every layer metric is a measurement. Only metrics the
    // workload did not set are taken from it.
    Options smoke = o;
    smoke.tiny = true;
    smoke.seconds = 1.0;
    smoke.expect = o.expect_tiny;
    for (const std::string& other : kWorkloads) {
      if (other == o.workload) continue;
      perfbench::Tracer smoke_tracer;
      Result extra = RunWorkload(other, smoke, &smoke_tracer);
      for (const auto& [layer, s] : smoke_tracer.SelfSecondsByLayer()) {
        extra.Set(layer + ".self_s", s);
      }
      WriteTrace(smoke_tracer, stem + ".smoke-" + other + ".jsonl", &r);
      for (const auto& [name, value] : extra.metrics) {
        if (r.metrics.emplace(name, value).second && extra.samples.count(name)) {
          r.samples[name] = extra.samples.at(name);
        }
      }
      r.attempted += extra.attempted;
      r.failed += extra.failed;
      for (const std::string& e : extra.errors) r.Fail(other + " (smoke): " + e);
    }
  }
  if (r.failed != 0) r.correct = false;

  for (const std::string& e : r.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::printf("workload %s seed %llu%s: %llu operations, %llu failed\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.trace ? " (traced)" : "",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  const std::vector<MetricDef>& defs = o.trace ? kPerLayer : kEndToEnd;
  std::string json;
  for (const MetricDef& m : defs) {
    const auto it = r.metrics.find(m.name);
    const double value = it == r.metrics.end() ? 0.0 : it->second;
    const auto n = r.samples.find(m.name);
    std::printf("  %-36s %16.6f %-5s%s\n", m.name, value, m.unit,
                n == r.samples.end()
                    ? ""
                    : ("  (n=" + std::to_string(n->second) + ")").c_str());
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", m.name, value, m.unit);
    json += buf;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "{%s}}\n",
      r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), json.c_str());
  return r.correct ? 0 : 1;
}
