// Shared pieces of the three workloads: command-line options, the result
// each workload hands back to main(), and small statistics and process
// helpers.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "trace.h"

namespace perfbench {

// Thread budget for a 4-vCPU host, leaving one vCPU to the host.
// ThreadPool::WaitIdle runs tasks on the calling thread too, so a study
// pool of N workers keeps N + 1 threads busy: 2 workers + the caller = 3.
// A serve workload keeps every shard worker, the daemon's event loop and
// the client busy: 1 shard + 1 + 1 = 3.
inline constexpr int kStudyThreads = 2;
inline constexpr int kServeShards = 1;

// Known answers of study_us_broadband at one size (see expected.json).
struct Expected {
  long long tp = -1, fp = -1, fn = -1, tn = -1;
  std::string digest;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  // smoke size
  std::string out_dir = ".bench_out";
  Expected expect;       // at this run's size
  Expected expect_tiny;  // at smoke size
};

// What a workload reports. `metrics` maps a metric name to its value; main()
// prints the end-to-end or the per-layer list.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  // Sample count behind each timing metric, printed next to it.
  std::map<std::string, std::uint64_t> samples;
  std::vector<std::string> errors;

  void Fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
  void Set(const std::string& name, double value, std::uint64_t n = 0) {
    metrics[name] = value;
    if (n != 0) samples[name] = n;
  }
};

Result RunStudy(const Options& options, Tracer* tracer);
Result RunIngest(const Options& options, Tracer* tracer);
Result RunQuery(const Options& options, Tracer* tracer);

// Nearest-rank percentile, p in [0, 1]; 0 for an empty input.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

// getrusage snapshot of the whole process.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  long vol_cs = 0;
  long invol_cs = 0;
  long max_rss_kb = 0;

  static Usage Now() {
    rusage r{};
    getrusage(RUSAGE_SELF, &r);
    Usage u;
    u.user_s = static_cast<double>(r.ru_utime.tv_sec) +
               static_cast<double>(r.ru_utime.tv_usec) * 1e-6;
    u.sys_s = static_cast<double>(r.ru_stime.tv_sec) +
              static_cast<double>(r.ru_stime.tv_usec) * 1e-6;
    u.vol_cs = r.ru_nvcsw;
    u.invol_cs = r.ru_nivcsw;
    u.max_rss_kb = r.ru_maxrss;
    return u;
  }
  double cpu_s() const { return user_s + sys_s; }
};

// proc.* layer metrics: the process's CPU and context switches between two
// snapshots.
inline void SetProcMetrics(Result* r, const Usage& a, const Usage& b) {
  r->Set("proc.user_cpu_s", b.user_s - a.user_s);
  r->Set("proc.sys_cpu_s", b.sys_s - a.sys_s);
  r->Set("proc.vol_ctx_switches", static_cast<double>(b.vol_cs - a.vol_cs));
  r->Set("proc.invol_ctx_switches",
         static_cast<double>(b.invol_cs - a.invol_cs));
}

inline double PeakRssMb() {
  return static_cast<double>(Usage::Now().max_rss_kb) / 1024.0;
}

inline double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// 64-bit FNV-1a, for output digests.
class Digest {
 public:
  void Add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(std::string_view s) { Add(s.data(), s.size()); }
  template <typename T>
  void AddValue(const T& v) {
    Add(&v, sizeof(v));
  }
  std::string Hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

inline std::string Digest::Hex() const {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) out[15 - i] = kHex[(h_ >> (4 * i)) & 0xf];
  return out;
}

inline std::string DigestOf(std::string_view text) {
  Digest d;
  d.Add(text);
  return d.Hex();
}

}  // namespace perfbench
