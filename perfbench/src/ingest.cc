// serve_ingest_wal: the live write path. Each pass opens a fresh daemon
// (kServeShards shards, WAL on with a day-close fsync) and one
// BlockingClient submits the seeded stream, one batch per (day, link),
// calling Flush after every day. One Submit round trip is the workload's
// operation. The pass's verdict log must equal an in-process 1-shard,
// WAL-less reference over the same stream, and every submit must be
// acknowledged in full.
#include <algorithm>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "infer/rolling.h"
#include "live.h"
#include "serve/codec.h"
#include "serve/engine.h"
#include "serve/ingest.h"
#include "serve/service.h"
#include "serve/session.h"
#include "serve/wal.h"
#include "stream.h"

namespace perfbench {

using namespace manic;
using serve::Sample;

namespace {

StreamShape Shape(const Options& o) {
  StreamShape shape;
  shape.links = o.tiny ? 6 : 64;
  shape.days = o.tiny ? 60 : 160;
  return shape;
}

// Every batch of one day, generated before the day's timed submits.
std::vector<std::vector<Sample>> DayBatches(const Stream& stream,
                                            std::int64_t day) {
  std::vector<std::vector<Sample>> batches(
      static_cast<std::size_t>(stream.shape().links));
  for (int link = 1; link <= stream.shape().links; ++link) {
    stream.Batch(day, link, &batches[static_cast<std::size_t>(link - 1)]);
  }
  return batches;
}

// The verdict log an in-process 1-shard service without a WAL writes for
// the stream, closing each day as the daemon's Flush does.
std::string ReferenceLog(const Stream& stream) {
  serve::CongestionService service(ServeConfig("", 1));
  service.Start();
  std::vector<Sample> batch;
  for (std::int64_t day = 0; day < stream.shape().days; ++day) {
    for (int link = 1; link <= stream.shape().links; ++link) {
      stream.Batch(day, link, &batch);
      const serve::SubmitSummary s = service.SubmitBatch(batch);
      (void)s;
    }
    (void)service.FinishStream();
  }
  return service.VerdictLogText();
}

constexpr int kSetups = 10;

// A pass's figures. Its round-trip times are reduced to percentiles when
// the pass ends, so a run's memory does not grow with its number of passes.
struct Pass {
  std::vector<double> setup_s;  // kSetups values
  double submit_p50_ms = 0.0;
  double submit_p90_ms = 0.0;
  std::uint64_t submits = 0;
  double flush_p50_ms = 0.0;  // Flush round trips of full-window days
  double flush_p90_ms = 0.0;
  std::uint64_t flushes = 0;
  double cycle_s = 0.0;  // summed Submit and Flush round trips
  double cpu_s = 0.0;
  std::uint64_t accepted = 0;
};

// One end-to-end pass against a fresh daemon and WAL directory. Every
// daemon gets a directory of its own under `wal_root`, and none is deleted
// before the run ends: on a filesystem that discards freed blocks, deleting
// a pass's WAL slows the next pass's fsyncs.
Pass RunPass(const Stream& stream, const std::string& wal_root,
             const std::string& reference_digest, std::uint64_t id,
             Tracer* tracer, Result* r) {
  Pass p;
  std::vector<double> submit_ms;  // every Submit round trip
  std::vector<double> flush_ms;   // Flush round trips, full-window days
  std::string wal_dir;
  // Set-up takes about a millisecond, so each pass opens kSetups daemons on
  // an empty WAL directory for a steadier set-up median and keeps the last.
  LiveDaemon live;
  serve::BlockingClient client;
  for (int i = 0; i < kSetups; ++i) {
    wal_dir = wal_root + "/pass" + std::to_string(id) + "-" + std::to_string(i);
    const bool last = i + 1 == kSetups;
    LiveDaemon spare;
    serve::BlockingClient spare_client;
    LiveDaemon& daemon = last ? live : spare;
    serve::BlockingClient& conn = last ? client : spare_client;
    std::string error;
    const std::uint64_t op =
        OpId(Op::kSetup, id * kSetups + static_cast<std::uint64_t>(i));
    const std::int64_t t0 = NowNs();
    bool opened = false;
    {
      Scope span(tracer, "serve_setup", op);
      opened = daemon.Open(ServeConfig(wal_dir), tracer, op, &error);
      if (opened) {
        Scope connect(tracer, "daemon.BlockingClient.Connect", op);
        opened = conn.Connect(daemon.port());
        if (!opened) error = "connect failed";
      }
    }
    p.setup_s.push_back(Seconds(NowNs() - t0));
    ++r->attempted;
    if (!opened) {
      ++r->failed;
      r->Fail("ingest pass " + std::to_string(id) + ": " + error);
      return p;
    }
  }
  const StreamShape& shape = stream.shape();
  std::uint64_t submitted = 0;
  const double cpu0 = Usage::Now().cpu_s();
  for (std::int64_t day = 0; day < shape.days; ++day) {
    const auto batches = DayBatches(stream, day);
    Scope day_span(tracer, "ingest_day");
    for (int link = 1; link <= shape.links; ++link) {
      const auto& batch = batches[static_cast<std::size_t>(link - 1)];
      const std::uint64_t op = OpId(
          Op::kSubmit,
          id << 32 | static_cast<std::uint64_t>(day * shape.links + link - 1));
      const std::int64_t s0 = NowNs();
      bool ok = false;
      {
        Scope span(tracer, "daemon.BlockingClient.Submit", op);
        ok = client.Submit(batch);
      }
      submit_ms.push_back(Seconds(NowNs() - s0) * 1e3);
      ++r->attempted;
      submitted += batch.size();
      if (!ok) {
        ++r->failed;
        if (r->errors.size() < 5) {
          r->Fail("submit day " + std::to_string(day) + " link " +
                  std::to_string(link) + " failed (client error " +
                  std::to_string(static_cast<int>(client.last_error())) + ")");
        }
      }
    }
    const std::int64_t f0 = NowNs();
    std::optional<std::int64_t> closed;
    {
      Scope span(tracer, "daemon.BlockingClient.Flush",
                 OpId(Op::kFlush, id << 32 | static_cast<std::uint64_t>(day)));
      closed = client.Flush();
    }
    const double round_trip_ms = Seconds(NowNs() - f0) * 1e3;
    ++r->attempted;
    if (!closed || *closed != day) {
      ++r->failed;
      r->Fail("flush of day " + std::to_string(day) + " did not close it");
    }
    if (day >= shape.window_days - 1) flush_ms.push_back(round_trip_ms);
    p.cycle_s += round_trip_ms * 1e-3;
  }
  for (double ms : submit_ms) p.cycle_s += ms * 1e-3;
  p.cpu_s = Usage::Now().cpu_s() - cpu0;
  p.submit_p50_ms = Median(submit_ms);
  p.submit_p90_ms = Percentile(submit_ms, 0.9);
  p.submits = submit_ms.size();
  p.flush_p50_ms = Median(flush_ms);
  p.flush_p90_ms = Percentile(flush_ms, 0.9);
  p.flushes = flush_ms.size();
  client.Close();
  live.Close();

  serve::CongestionService& service = live.service();
  const serve::ServiceStats stats = service.Stats();
  p.accepted = stats.samples;
  // Samples the daemon did not consume were shed (degraded WAL) or lost.
  const std::uint64_t consumed =
      stats.samples + stats.samples_late + stats.samples_rejected;
  const std::uint64_t shed = submitted > consumed ? submitted - consumed : 0;
  const std::uint64_t dropped = stats.samples_late + stats.samples_rejected + shed;
  if (dropped != 0 || stats.samples != submitted) {
    r->failed += std::max<std::uint64_t>(dropped, 1);
    r->Fail("pass " + std::to_string(id) + ": " + std::to_string(stats.samples) +
            " of " + std::to_string(submitted) + " samples accepted, " +
            std::to_string(stats.samples_late) + " late, " +
            std::to_string(stats.samples_rejected) + " rejected, " +
            std::to_string(shed) + " not consumed");
  }
  ++r->attempted;
  const std::string digest = DigestOf(service.VerdictLogText());
  if (digest != reference_digest) {
    ++r->failed;
    r->Fail("pass " + std::to_string(id) + ": verdict log digest " + digest +
            " != reference " + reference_digest);
  }
  if (service.CloseWalClean() != serve::WalStatus::kOk) {
    ++r->failed;
    r->Fail("pass " + std::to_string(id) + ": clean WAL close failed");
  }
  if (tracer != nullptr) {
    r->Set("service.samples_accepted", static_cast<double>(stats.samples));
    r->Set("service.samples_late", static_cast<double>(stats.samples_late));
    r->Set("service.samples_rejected",
           static_cast<double>(stats.samples_rejected));
    r->Set("service.samples_shed", static_cast<double>(shed));
    r->Set("service.days_closed", static_cast<double>(stats.days_closed));
    r->Set("service.verdict_rows", static_cast<double>(stats.verdicts));
    // What the pass left in the log, read back as recovery would.
    const serve::WalRecoverStats read =
        serve::ReadWal(wal_dir, [](std::span<const Sample>) {},
                       [](std::int64_t) {});
    r->Set("wal.records", static_cast<double>(read.records));
    r->Set("wal.segments", static_cast<double>(read.segments));
    r->Set("wal.samples", static_cast<double>(read.samples));
  }
  return p;
}

// The layers IngestLayers drives one after another. A drive's number goes
// above bit 32 of its op ids, so each drive of a batch is its own operation.
enum class Drive : std::uint64_t {
  kCodec,
  kSession,
  kService,
  kIngest,
  kEngine,
  kWal
};

std::uint64_t BatchOp(Drive drive, std::uint64_t batch) {
  return OpId(Op::kLayerSubmit,
              static_cast<std::uint64_t>(drive) << 32 | batch);
}
std::uint64_t CloseOp(Drive drive, std::int64_t day) {
  return OpId(Op::kLayerClose, static_cast<std::uint64_t>(drive) << 32 |
                                   static_cast<std::uint64_t>(day));
}

// Per-layer calls over the same stream, each layer driven on its own from
// the benchmark: codec, session, service, ingest shard, engine, WAL writer
// and rolling autocorrelation.
void IngestLayers(const Stream& stream, const std::string& out_dir,
                  Tracer* tracer, Result* r) {
  const StreamShape& shape = stream.shape();
  const double per_batch = static_cast<double>(stream.samples_per_batch());
  const double batches = static_cast<double>(shape.days) * shape.links;
  const double samples = per_batch * batches;
  std::vector<Sample> batch;

  {  // codec
    std::vector<Sample> decoded;
    std::uint64_t id = 0;
    for (std::int64_t day = 0; day < shape.days; ++day) {
      for (int link = 1; link <= shape.links; ++link, ++id) {
        stream.Batch(day, link, &batch);
        std::string frame;
        {
          Scope span(tracer, "codec.EncodeSubmitBatch",
                     BatchOp(Drive::kCodec, id), batch.size());
          frame = serve::EncodeSubmitBatch(batch);
        }
        const std::string_view payload = std::string_view(frame).substr(5);
        bool ok = false;
        {
          Scope span(tracer, "codec.DecodeSubmitBatch",
                     BatchOp(Drive::kCodec, id), batch.size());
          ok = serve::DecodeSubmitBatch(payload, &decoded);
        }
        ++r->attempted;
        if (!ok || decoded.size() != batch.size()) {
          ++r->failed;
          r->Fail("codec round trip failed");
        }
      }
    }
    r->Set("codec.encode_submit_ns_per_sample",
           tracer->Seconds("codec.EncodeSubmitBatch") * 1e9 / samples,
           static_cast<std::uint64_t>(batches));
    r->Set("codec.decode_submit_ns_per_sample",
           tracer->Seconds("codec.DecodeSubmitBatch") * 1e9 / samples,
           static_cast<std::uint64_t>(batches));
  }

  {  // session, in-process: frames straight into Session::Consume
    serve::CongestionService service(ServeConfig(""));
    service.Start();
    serve::Session session(&service);
    std::string out;
    (void)session.Consume(serve::EncodeHello(), &out);
    std::uint64_t id = 0;
    for (std::int64_t day = 0; day < shape.days; ++day) {
      for (int link = 1; link <= shape.links; ++link, ++id) {
        stream.Batch(day, link, &batch);
        const std::string frame = serve::EncodeSubmitBatch(batch);
        out.clear();
        bool ok = false;
        {
          Scope span(tracer, "session.Consume(submit)",
                     BatchOp(Drive::kSession, id), batch.size());
          ok = session.Consume(frame, &out);
        }
        ++r->attempted;
        if (!ok) {
          ++r->failed;
          r->Fail("session rejected a submit frame");
        }
      }
      out.clear();
      Scope span(tracer, "session.Consume(flush)",
                 CloseOp(Drive::kSession, day));
      (void)session.Consume(serve::EncodeFlush(), &out);
    }
    r->Set("session.submit_ns_per_sample",
           tracer->Seconds("session.Consume(submit)") * 1e9 / samples,
           static_cast<std::uint64_t>(batches));
  }

  {  // service, in-process SubmitBatch
    serve::CongestionService service(ServeConfig(""));
    service.Start();
    std::uint64_t id = 0;
    for (std::int64_t day = 0; day < shape.days; ++day) {
      for (int link = 1; link <= shape.links; ++link, ++id) {
        stream.Batch(day, link, &batch);
        Scope span(tracer, "service.SubmitBatch",
                   BatchOp(Drive::kService, id), batch.size());
        const serve::SubmitSummary s = service.SubmitBatch(batch);
        (void)s;
      }
      Scope span(tracer, "service.FinishStream", CloseOp(Drive::kService, day));
      (void)service.FinishStream();
    }
    r->Set("service.submit_ns_per_sample",
           tracer->Seconds("service.SubmitBatch") * 1e9 / samples,
           static_cast<std::uint64_t>(batches));
  }

  {  // one ingest shard: ring hand-off, then the day-close handshake
    serve::IngestShard shard;
    shard.Start();
    std::uint64_t id = 0;
    for (std::int64_t day = 0; day < shape.days; ++day) {
      for (int link = 1; link <= shape.links; ++link, ++id) {
        stream.Batch(day, link, &batch);
        Scope span(tracer, "ingest.PushSample",
                   BatchOp(Drive::kIngest, id), batch.size());
        for (const Sample& s : batch) shard.PushSample(s);
      }
      Scope span(tracer, "ingest.PushCloseDay+WaitClosed",
                 CloseOp(Drive::kIngest, day));
      shard.PushCloseDay(day);
      shard.WaitClosed(day);
      (void)shard.TakeDayVerdicts();
    }
    shard.Stop();
    r->Set("ingest.push_ns_per_sample",
           tracer->Seconds("ingest.PushSample") * 1e9 / samples,
           static_cast<std::uint64_t>(batches));
    r->Set("ingest.close_wait_us",
           tracer->Seconds("ingest.PushCloseDay+WaitClosed") * 1e6 / shape.days,
           static_cast<std::uint64_t>(shape.days));
  }

  {  // engine: binning and the day close, no threads
    serve::ShardEngine engine;
    std::uint64_t id = 0;
    std::uint64_t day_links = 0;
    for (std::int64_t day = 0; day < shape.days; ++day) {
      for (int link = 1; link <= shape.links; ++link, ++id) {
        stream.Batch(day, link, &batch);
        Scope span(tracer, "engine.Ingest",
                   BatchOp(Drive::kEngine, id), batch.size());
        for (const Sample& s : batch) engine.Ingest(s);
      }
      Scope span(tracer, "engine.CloseDay", CloseOp(Drive::kEngine, day));
      day_links += engine.CloseDay(day).size();
    }
    r->Set("engine.ingest_ns_per_sample",
           tracer->Seconds("engine.Ingest") * 1e9 / samples,
           static_cast<std::uint64_t>(batches));
    r->Set("engine.close_us_per_day_link",
           day_links > 0 ? tracer->Seconds("engine.CloseDay") * 1e6 /
                               static_cast<double>(day_links)
                         : 0.0,
           day_links);
  }

  {  // WAL writer: appends, and the day-close marker with its fsync
    const std::string dir = out_dir + "/wal-layer";
    std::filesystem::remove_all(dir);
    serve::WalWriter wal;
    serve::WalConfig config;
    config.dir = dir;
    config.fsync = serve::WalFsync::kDayClose;
    bool ok = wal.Open(config) == serve::WalStatus::kOk;
    std::uint64_t id = 0;
    for (std::int64_t day = 0; ok && day < shape.days; ++day) {
      for (int link = 1; link <= shape.links; ++link, ++id) {
        stream.Batch(day, link, &batch);
        Scope span(tracer, "wal.AppendSamples",
                   BatchOp(Drive::kWal, id), batch.size());
        ok = ok && wal.AppendSamples(batch) == serve::WalStatus::kOk;
      }
      Scope span(tracer, "wal.AppendClose", CloseOp(Drive::kWal, day));
      ok = ok && wal.AppendClose(day) == serve::WalStatus::kOk;
    }
    ok = ok && wal.CloseClean() == serve::WalStatus::kOk;
    ++r->attempted;
    if (!ok) {
      ++r->failed;
      r->Fail("WAL writer failed under " + dir);
    }
    std::filesystem::remove_all(dir);
    r->Set("wal.append_us_per_batch",
           tracer->Seconds("wal.AppendSamples") * 1e6 / batches,
           static_cast<std::uint64_t>(batches));
    r->Set("wal.sync_ms", tracer->Seconds("wal.AppendClose") * 1e3 / shape.days,
           static_cast<std::uint64_t>(shape.days));
  }

  {  // rolling autocorrelation over the stream's (link, VP) day rows
    std::map<std::uint64_t, infer::RollingAutocorr> rolling;
    const auto bins = static_cast<std::size_t>(shape.bins_per_day);
    std::vector<float> far(bins), near(bins);
    std::int64_t infer_ns = 0;
    std::uint64_t rows = 0;
    for (std::int64_t day = 0; day < shape.days; ++day) {
      for (int link = 1; link <= shape.links; ++link) {
        stream.Batch(day, link, &batch);
        // The batch holds each VP's bins in order, two samples per bin.
        for (int vp = 0; vp < shape.vps; ++vp) {
          for (std::size_t b = 0; b < bins; ++b) {
            const Sample& f = batch[(static_cast<std::size_t>(vp) * bins + b) * 2];
            const Sample& n = batch[(static_cast<std::size_t>(vp) * bins + b) * 2 + 1];
            const float nan = std::numeric_limits<float>::quiet_NaN();
            far[b] = f.kind == serve::SampleKind::kFarRtt ? f.value : nan;
            near[b] = n.kind == serve::SampleKind::kNearRtt ? n.value : nan;
          }
          const std::uint64_t key =
              static_cast<std::uint64_t>(link) * 1000 + static_cast<std::uint64_t>(vp);
          auto& roll = rolling.try_emplace(key).first->second;
          const std::int64_t t0 = NowNs();
          roll.AddDay(far, near);
          if (roll.WindowFull()) {
            const infer::DayClassification c = roll.Classify();
            (void)c;
          }
          infer_ns += NowNs() - t0;
          ++rows;
        }
      }
    }
    tracer->Fold("infer.RollingAutocorr.AddDay+Classify", infer_ns, rows);
    r->Set("infer.rolling_us_per_pair_day",
           Seconds(infer_ns) * 1e6 / static_cast<double>(rows), rows);
  }
}

}  // namespace

Result RunIngest(const Options& o, Tracer* tracer) {
  Result r;
  const Stream stream(o.seed, Shape(o));
  const std::string reference = DigestOf(ReferenceLog(stream));
  const std::string wal_root = o.out_dir + "/wal-ingest";
  std::filesystem::remove_all(wal_root);

  std::vector<Pass> untraced, traced;
  const Usage usage0 = Usage::Now();
  const std::int64_t start_ns = NowNs();
  double pass_s = 0.0;  // mean wall time of one pass so far
  // The traced run alternates untraced and traced passes, at least one of
  // each, so the tracing overhead is measured in one process.
  const std::uint64_t min_passes = tracer != nullptr ? 2 : 1;
  for (std::uint64_t id = 0;; ++id) {
    const double elapsed = Seconds(NowNs() - start_ns);
    if (id >= min_passes && elapsed + pass_s > o.seconds) break;
    Tracer* tr = tracer != nullptr && id % 2 == 1 ? tracer : nullptr;
    (tr != nullptr ? traced : untraced)
        .push_back(RunPass(stream, wal_root, reference, id, tr, &r));
    pass_s = Seconds(NowNs() - start_ns) / static_cast<double>(id + 1);
  }
  const Usage usage1 = Usage::Now();

  // Per-pass figures, then their median: a pass that a burst of host
  // interference slowed moves the median less than it moves a pooled sum.
  std::vector<double> setup_s, rate, submit_p50, submit_p90, flush_p50, flush_p90;
  double cpu_s = 0.0;
  std::uint64_t accepted = 0, submits = 0, flushes = 0;
  for (const Pass& p : untraced) {
    setup_s.insert(setup_s.end(), p.setup_s.begin(), p.setup_s.end());
    rate.push_back(static_cast<double>(p.accepted) / p.cycle_s);
    submit_p50.push_back(p.submit_p50_ms);
    submit_p90.push_back(p.submit_p90_ms);
    flush_p50.push_back(p.flush_p50_ms);
    flush_p90.push_back(p.flush_p90_ms);
    submits += p.submits;
    flushes += p.flushes;
    cpu_s += p.cpu_s;
    accepted += p.accepted;
  }
  r.Set("setup_s", Median(setup_s), setup_s.size());
  r.Set("op_ms_p50", Median(submit_p50), submits);
  r.Set("op_ms_p90", Median(submit_p90), submits);
  r.Set("throughput_per_s", Median(rate), rate.size());
  r.Set("cpu_us_per_unit", cpu_s * 1e6 / static_cast<double>(accepted),
        untraced.size());
  r.Set("daemon.flush_ms_p50", Median(flush_p50), flushes);
  r.Set("daemon.flush_ms_p90", Median(flush_p90), flushes);

  if (tracer != nullptr) {
    SetProcMetrics(&r, usage0, usage1);
    r.Set("unattributed_frac", tracer->UnattributedFrac("ingest_day"));
    double traced_s = 0.0, untraced_s = 0.0;
    for (const Pass& p : traced) traced_s += p.cycle_s;
    for (const Pass& p : untraced) untraced_s += p.cycle_s;
    traced_s /= static_cast<double>(traced.size());
    untraced_s /= static_cast<double>(untraced.size());
    r.Set("trace.overhead_frac", (traced_s - untraced_s) / untraced_s,
          traced.size());
    const std::uint64_t recoveries = tracer->Calls("service.RecoverFromWal");
    r.Set("wal.recover_s",
          tracer->Seconds("service.RecoverFromWal") /
              static_cast<double>(recoveries),
          recoveries);
    IngestLayers(stream, o.out_dir, tracer, &r);
  }
  std::filesystem::remove_all(wal_root);
  return r;
}

}  // namespace perfbench
