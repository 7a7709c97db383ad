// serve_query: the read path. Before timing, an in-process service writes
// the seeded stream to a WAL and is dropped without a clean close, as in a
// crash. Set-up is the daemon's crash restart: service start, WAL recovery,
// listen and connect, repeated kRestarts times. Then one BlockingClient
// issues a seeded mix of QueryPoint and QueryRange (see MakeQuery), with no
// ingest. Every wire reply must be non-empty and equal the in-process
// answer of the recovered service, and every recovered verdict log must
// equal the log the crashed writer had built.
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "live.h"
#include "serve/codec.h"
#include "serve/service.h"
#include "serve/session.h"
#include "serve/wal.h"
#include "stats/calendar.h"
#include "stats/rng.h"
#include "stream.h"

namespace perfbench {

using namespace manic;
using serve::Sample;
using serve::VerdictRecord;
using serve::TimeSec;
using stats::Rng;

namespace {

constexpr int kRestarts = 3;
// Queries per block. Latency percentiles, rate and CPU time are taken per
// block, so a run's memory does not grow with the number of queries.
constexpr std::uint64_t kBlock = 1000;
// The traced run alternates untraced and traced blocks over its first
// kTracedQueries queries, which bounds the size of its trace, then runs
// untraced blocks like the untraced run. The layer timings replay as many.
constexpr std::uint64_t kTracedQueries = 40 * kBlock;

StreamShape Shape(const Options& o) {
  StreamShape shape;
  shape.links = o.tiny ? 6 : 48;
  shape.days = o.tiny ? 60 : 100;
  return shape;
}

struct Query {
  bool range = false;
  topo::LinkId link = 0;
  TimeSec t0 = 0;
  TimeSec t1 = 0;
};

// Query i of the seeded mix. It follows the repository's own readers of
// the verdict index:
//  * a point at the start of a day, for a link and a day drawn uniformly,
//    as bench/perf_gate.cc and the parity sweep of
//    examples/continental_study.cpp ask;
//  * the whole history of one link, as examples/serve_quickstart.cpp and
//    continental_study.cpp ask.
// continental_study asks one range per link after one point per verdict
// day of that link, so one query in (verdict days + 1) is a range. Points
// are drawn only over days that have a verdict, from day window_days - 1
// on, so every answer is non-empty. perf_gate also asks earlier days,
// whose answer is empty.
Query MakeQuery(std::uint64_t seed, std::uint64_t i, const StreamShape& shape) {
  const auto first_day = static_cast<std::uint64_t>(shape.window_days - 1);
  const auto verdict_days = static_cast<std::uint64_t>(shape.days) - first_day;
  Query q;
  q.range = Rng::HashMix(seed, i, 21) % (verdict_days + 1) == 0;
  q.link = static_cast<topo::LinkId>(
      1 + Rng::HashMix(seed, i, 22) % static_cast<std::uint64_t>(shape.links));
  if (q.range) {
    q.t1 = static_cast<TimeSec>(shape.days) * stats::kSecPerDay;
  } else {
    q.t0 = static_cast<TimeSec>(first_day + Rng::HashMix(seed, i, 23) %
                                                verdict_days) *
           stats::kSecPerDay;
  }
  return q;
}

// Writes the stream into a WAL under `dir` and returns the writer's
// verdict log. The service is destroyed without CloseWalClean.
std::string WriteWal(const Stream& stream, const std::string& dir,
                     Result* r) {
  std::filesystem::remove_all(dir);
  serve::CongestionService service(ServeConfig(dir));
  service.Start();
  if (!service.RecoverFromWal().ok) {
    r->Fail("cannot open a WAL under " + dir);
    return std::string();
  }
  std::vector<Sample> batch;
  for (std::int64_t day = 0; day < stream.shape().days; ++day) {
    for (int link = 1; link <= stream.shape().links; ++link) {
      stream.Batch(day, link, &batch);
      const serve::SubmitSummary s = service.SubmitBatch(batch);
      if (s.accepted != batch.size()) r->Fail("WAL writer dropped samples");
    }
    (void)service.FinishStream();
  }
  return service.VerdictLogText();
}

// In-process layer timings against the recovered service: the service's
// query functions, then a Session fed query frames directly.
void QueryLayers(serve::CongestionService& service, const StreamShape& shape,
                 std::uint64_t seed, Tracer* tracer, Result* r) {
  std::uint64_t points = 0, ranges = 0;
  for (std::uint64_t i = 0; i < kTracedQueries; ++i) {
    const Query q = MakeQuery(seed, i, shape);
    if (q.range) {
      Scope span(tracer, "service.QueryRange", OpId(Op::kLayerQuery, i));
      (void)service.QueryRange(q.link, q.t0, q.t1);
      ++ranges;
    } else {
      Scope span(tracer, "service.QueryPoint", OpId(Op::kLayerQuery, i));
      (void)service.QueryPoint(q.link, q.t0);
      ++points;
    }
  }
  r->Set("service.query_point_ns",
         tracer->Seconds("service.QueryPoint") * 1e9 / static_cast<double>(points),
         points);
  r->Set("service.query_range_ns",
         tracer->Seconds("service.QueryRange") * 1e9 / static_cast<double>(ranges),
         ranges);

  serve::Session session(&service);
  std::string out;
  (void)session.Consume(serve::EncodeHello(), &out);
  std::uint64_t session_points = 0;
  for (std::uint64_t i = 0; i < kTracedQueries; ++i) {
    const Query q = MakeQuery(seed, i, shape);
    if (q.range) continue;
    const std::string frame = serve::EncodeQueryPoint(q.link, q.t0);
    out.clear();
    Scope span(tracer, "session.Consume(query_point)",
               OpId(Op::kLayerQuery, std::uint64_t{1} << 32 | i));
    (void)session.Consume(frame, &out);
    ++session_points;
  }
  const double session_ns = tracer->Seconds("session.Consume(query_point)") *
                            1e9 / static_cast<double>(session_points);
  r->Set("session.query_point_ns", session_ns, session_points);
  // Medians: wire round trips have rare multi-millisecond stalls that would
  // swamp a mean.
  const std::vector<double> wire = tracer->Durations("daemon.BlockingClient.QueryPoint");
  const std::vector<double> local = tracer->Durations("session.Consume(query_point)");
  r->Set("daemon.query_overhead_us", (Median(wire) - Median(local)) * 1e6,
         wire.size());
}

// One query of a block, with its wire reply kept for the check that follows
// the block's timed part.
struct Reply {
  Query q;
  bool transport_ok = false;
  std::optional<VerdictRecord> point;
  std::optional<std::vector<VerdictRecord>> range;
};

// Figures of one block of kBlock queries.
struct Block {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double rate = 0.0;   // queries per second of round-trip time
  double cpu_s = 0.0;  // process CPU time over the round trips
};

// Sends queries [block * kBlock, (block + 1) * kBlock) over the wire and
// times them, then checks every reply against the recovered service's
// in-process answer. The check is outside the timed part and the CPU
// window. `replies` and `latency_ms` are reused from block to block.
Block RunBlock(serve::BlockingClient& client,
               const serve::CongestionService& service,
               const StreamShape& shape, std::uint64_t seed,
               std::uint64_t block, Tracer* tracer,
               std::vector<Reply>* replies, std::vector<double>* latency_ms,
               Result* r) {
  latency_ms->resize(kBlock);
  replies->resize(kBlock);
  const Usage usage0 = Usage::Now();
  {
    Scope block_span(tracer, "query_block");
    for (std::uint64_t j = 0; j < kBlock; ++j) {
      const std::uint64_t i = block * kBlock + j;
      Reply& reply = (*replies)[j];
      reply.q = MakeQuery(seed, i, shape);
      const std::int64_t t0 = NowNs();
      if (reply.q.range) {
        Scope span(tracer, "daemon.BlockingClient.QueryRange",
                   OpId(Op::kQuery, i));
        reply.range = client.QueryRange(reply.q.link, reply.q.t0, reply.q.t1);
        reply.transport_ok = reply.range.has_value();
      } else {
        Scope span(tracer, "daemon.BlockingClient.QueryPoint",
                   OpId(Op::kQuery, i));
        reply.point = client.QueryPoint(reply.q.link, reply.q.t0);
        // A point without a verdict is nullopt too; the client's error tells
        // it apart from a transport failure.
        reply.transport_ok = client.last_error() == serve::ClientError::kNone;
      }
      (*latency_ms)[j] = Seconds(NowNs() - t0) * 1e3;
    }
  }
  const Usage usage1 = Usage::Now();

  for (std::uint64_t j = 0; j < kBlock; ++j) {
    const Reply& reply = (*replies)[j];
    const Query& q = reply.q;
    bool ok = reply.transport_ok;
    if (q.range) {
      ok = ok && !reply.range->empty() &&
           *reply.range == service.QueryRange(q.link, q.t0, q.t1);
    } else {
      ok = ok && reply.point.has_value() &&
           reply.point == service.QueryPoint(q.link, q.t0);
    }
    ++r->attempted;
    if (!ok) {
      ++r->failed;
      if (r->errors.size() < 5) {
        r->Fail("query " + std::to_string(block * kBlock + j) + " (link " +
                std::to_string(q.link) +
                ") is empty or differs from the in-process answer");
      }
    }
  }

  Block b;
  b.p50_ms = Median(*latency_ms);
  b.p90_ms = Percentile(*latency_ms, 0.9);
  double sum_s = 0.0;
  for (double ms : *latency_ms) sum_s += ms * 1e-3;
  b.rate = static_cast<double>(kBlock) / sum_s;
  b.cpu_s = usage1.cpu_s() - usage0.cpu_s();
  return b;
}

}  // namespace

Result RunQuery(const Options& o, Tracer* tracer) {
  Result r;
  const Stream stream(o.seed, Shape(o));
  const std::string wal_dir = o.out_dir + "/wal-query";
  const std::string written_digest = DigestOf(WriteWal(stream, wal_dir, &r));

  std::vector<double> setup_s;
  std::unique_ptr<LiveDaemon> live;
  serve::BlockingClient client;
  for (int i = 0; i < kRestarts; ++i) {
    client.Close();
    live.reset();  // the previous incarnation stops before the next recovers
    live = std::make_unique<LiveDaemon>();
    std::string error;
    const std::int64_t t0 = NowNs();
    bool opened = false;
    {
      const std::uint64_t op = OpId(Op::kSetup, static_cast<std::uint64_t>(i));
      Scope span(tracer, "serve_setup", op);
      opened = live->Open(ServeConfig(wal_dir), tracer, op, &error);
      if (opened) {
        Scope connect(tracer, "daemon.BlockingClient.Connect", op);
        opened = client.Connect(live->port());
        if (!opened) error = "connect failed";
      }
    }
    setup_s.push_back(Seconds(NowNs() - t0));
    ++r.attempted;
    if (!opened) {
      ++r.failed;
      r.Fail("restart " + std::to_string(i) + ": " + error);
      return r;
    }
    ++r.attempted;
    const std::string digest = DigestOf(live->service().VerdictLogText());
    if (digest != written_digest) {
      ++r.failed;
      r.Fail("restart " + std::to_string(i) + ": recovered verdict log " +
             digest + " != written " + written_digest);
    }
  }
  serve::CongestionService& service = live->service();

  // Per-block figures: a few kilobytes over a run.
  std::vector<double> block_p50, block_p90, block_rate, traced_p50;
  double cpu_s = 0.0;
  std::uint64_t queries = 0;
  std::vector<Reply> replies;
  std::vector<double> latency_ms;
  const Usage usage0 = Usage::Now();
  const std::int64_t start_ns = NowNs();
  const std::int64_t end_ns = start_ns + static_cast<std::int64_t>(o.seconds * 1e9);
  const std::uint64_t alternating = tracer != nullptr ? kTracedQueries / kBlock : 0;
  for (std::uint64_t block = 0;; ++block) {
    if (block >= alternating && block > 0 && NowNs() >= end_ns) break;
    Tracer* tr = block < alternating && block % 2 == 1 ? tracer : nullptr;
    const Block b = RunBlock(client, service, stream.shape(), o.seed, block, tr,
                             &replies, &latency_ms, &r);
    if (tr != nullptr) {
      traced_p50.push_back(b.p50_ms);
      continue;
    }
    block_p50.push_back(b.p50_ms);
    block_p90.push_back(b.p90_ms);
    block_rate.push_back(b.rate);
    cpu_s += b.cpu_s;
    queries += kBlock;
  }
  const Usage usage1 = Usage::Now();
  r.Set("setup_s", Median(setup_s), setup_s.size());
  // Medians over blocks of 1000 queries: rare multi-millisecond stalls of
  // the host would dominate a figure over the whole run.
  r.Set("op_ms_p50", Median(block_p50), queries);
  r.Set("op_ms_p90", Median(block_p90), queries);
  r.Set("throughput_per_s", Median(block_rate), queries);
  // CPU of the untraced round trips only; the reply checks are outside.
  r.Set("cpu_us_per_unit", cpu_s * 1e6 / static_cast<double>(queries), queries);

  if (tracer != nullptr) {
    SetProcMetrics(&r, usage0, usage1);
    r.Set("unattributed_frac", tracer->UnattributedFrac("query_block"));
    const double untraced_p50 = Median(block_p50);
    r.Set("trace.overhead_frac",
          (Median(traced_p50) - untraced_p50) / untraced_p50,
          traced_p50.size() * kBlock);
    r.Set("wal.recover_s", tracer->Seconds("service.RecoverFromWal") / kRestarts,
          kRestarts);
    const serve::ServiceStats stats = service.Stats();
    r.Set("service.samples_accepted", static_cast<double>(stats.samples));
    r.Set("service.samples_late", static_cast<double>(stats.samples_late));
    r.Set("service.samples_rejected", static_cast<double>(stats.samples_rejected));
    r.Set("service.days_closed", static_cast<double>(stats.days_closed));
    r.Set("service.verdict_rows", static_cast<double>(stats.verdicts));
    serve::WalRecoverStats read;
    {
      Scope span(tracer, "wal.ReadWal", OpId(Op::kReadWal, 0));
      read = serve::ReadWal(wal_dir, [](std::span<const Sample>) {},
                            [](std::int64_t) {});
    }
    r.Set("wal.records", static_cast<double>(read.records));
    r.Set("wal.segments", static_cast<double>(read.segments));
    r.Set("wal.samples", static_cast<double>(read.samples));
    QueryLayers(service, stream.shape(), o.seed, tracer, &r);
  }
  client.Close();
  live.reset();
  std::filesystem::remove_all(wal_dir);
  return r;
}

}  // namespace perfbench
