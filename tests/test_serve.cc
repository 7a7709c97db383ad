// Tests for the serving plane (src/serve): the SPSC ring, the wire codec
// and frame reassembly (fragmentation, truncation, garbage), the shard
// engine's batch-equivalent verdict merge, the replay-determinism guarantee
// (same stream, any shard count => byte-identical verdict log), the query
// plane, the transport-free session state machine, and a live TCP daemon
// smoke test.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "infer/rolling.h"
#include "runtime/clock.h"
#include "runtime/framed_log.h"
#include "serve/codec.h"
#include "serve/daemon.h"
#include "serve/engine.h"
#include "serve/ring.h"
#include "serve/sample.h"
#include "serve/service.h"
#include "serve/session.h"
#include "serve/verdict.h"
#include "stats/calendar.h"
#include "stats/rng.h"

namespace manic::serve {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

// Small-window config all service-level tests share: 24 one-hour bins per
// day, a 6-day window, recurrence asserted from 3 elevated days.
infer::AutocorrConfig SmallConfig() {
  infer::AutocorrConfig config;
  config.window_days = 6;
  config.intervals_per_day = 24;
  config.bin_width = 3600;
  config.min_elevated_days = 3;
  config.quality.min_days_observed = 3;
  config.quality.max_gap_intervals = 2 * 24;
  return config;
}

// One synthesized day row pair for a (link, vp): elevated far RTT during
// hours 18-21 when `congested`, deterministic missing bins.
void DayRows(std::uint64_t key, std::int64_t day, bool congested,
             std::vector<float>& far, std::vector<float>& near) {
  far.assign(24, kNaN);
  near.assign(24, kNaN);
  for (int s = 0; s < 24; ++s) {
    if (stats::Rng::HashToUnit(key, day * 100 + s, 0xA) < 0.05) continue;
    const double base = 10.0 + stats::Rng::HashToUnit(key, day * 100 + s, 0xB);
    far[static_cast<std::size_t>(s)] = static_cast<float>(
        base + (congested && s >= 18 && s < 21 ? 20.0 : 0.0));
    near[static_cast<std::size_t>(s)] = static_cast<float>(base * 0.5);
  }
}

// Converts one day's rows to wire samples (missing markers included), the
// same encoding the continental --serve replay uses.
void RowsToSamples(topo::LinkId link, topo::VpId vp, std::int64_t day,
                   const std::vector<float>& far,
                   const std::vector<float>& near,
                   std::vector<Sample>* out) {
  for (int s = 0; s < static_cast<int>(far.size()); ++s) {
    const TimeSec t = day * stats::kSecPerDay + s * 3600 + 1800;
    const float f = far[static_cast<std::size_t>(s)];
    const float n = near[static_cast<std::size_t>(s)];
    out->push_back({t, link, vp,
                    std::isnan(f) ? SampleKind::kFarMissing
                                  : SampleKind::kFarRtt,
                    std::isnan(f) ? 0.0f : f});
    out->push_back({t, link, vp,
                    std::isnan(n) ? SampleKind::kNearMissing
                                  : SampleKind::kNearRtt,
                    std::isnan(n) ? 0.0f : n});
  }
}

// The full synthetic stream: `links` links x 2 VPs x `days` days. Links with
// an even id are congested. Day-major order, as a collector would emit.
std::vector<Sample> SyntheticStream(int links, int days) {
  std::vector<Sample> stream;
  std::vector<float> far, near;
  for (std::int64_t day = 0; day < days; ++day) {
    for (topo::LinkId link = 1; link <= static_cast<topo::LinkId>(links);
         ++link) {
      for (topo::VpId vp = 1; vp <= 2; ++vp) {
        DayRows(link * 1000 + vp, day, link % 2 == 0, far, near);
        RowsToSamples(link, vp, day, far, near, &stream);
      }
    }
  }
  return stream;
}

// ------------------------------------------------------------------ ring

TEST(SpscRing, PreservesOrderAcrossWraparound) {
  SpscRing<int> ring(4);  // rounds to 4 slots
  EXPECT_EQ(ring.capacity(), 4u);
  int out = 0;
  for (int round = 0; round < 10; ++round) {
    EXPECT_TRUE(ring.TryPush(round * 2));
    EXPECT_TRUE(ring.TryPush(round * 2 + 1));
    EXPECT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, round * 2);
    EXPECT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, round * 2 + 1);
  }
  EXPECT_FALSE(ring.TryPop(&out));
}

TEST(SpscRing, TryPushFailsWhenFull) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_FALSE(ring.TryPush(3));
  EXPECT_EQ(ring.SizeApprox(), 2u);
}

TEST(SpscRing, BlockingStressTransfersEverything) {
  SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kCount = 200000;
  std::uint64_t sum = 0;
  std::thread consumer([&] {
    for (std::uint64_t i = 0; i < kCount; ++i) sum += ring.PopBlocking();
  });
  for (std::uint64_t i = 1; i <= kCount; ++i) ring.Push(i);
  consumer.join();
  EXPECT_EQ(sum, kCount * (kCount + 1) / 2);
}

// ----------------------------------------------------------------- codec

TEST(Codec, SampleBatchRoundTripsBitExact) {
  std::vector<Sample> in = {
      {86400, 7, 3, SampleKind::kFarRtt, 12.625f},
      {86401, 7, 3, SampleKind::kNearRtt, 0.1f},
      {86402, 8, 1, SampleKind::kFarMissing, 0.0f},
      {86403, 9, 2, SampleKind::kLossRate, 0.015625f},
      {-3600, 1, 1, SampleKind::kNearMissing, 0.0f},
  };
  const std::string frame = EncodeSubmitBatch(in);
  FrameAssembler assembler;
  assembler.Feed(frame);
  MsgType type;
  std::string payload;
  ASSERT_TRUE(assembler.Next(&type, &payload));
  EXPECT_EQ(type, MsgType::kSubmitBatch);
  std::vector<Sample> out;
  ASSERT_TRUE(DecodeSubmitBatch(payload, &out));
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].t, in[i].t);
    EXPECT_EQ(out[i].link, in[i].link);
    EXPECT_EQ(out[i].vp, in[i].vp);
    EXPECT_EQ(out[i].kind, in[i].kind);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(out[i].value),
              std::bit_cast<std::uint32_t>(in[i].value));
  }
}

TEST(Codec, VerdictsRoundTripIncludingFlags) {
  std::vector<VerdictRecord> in(2);
  in[0] = {42, 7, true, true, false, 0.251953125, 3, 2, 0.875};
  in[1] = {43, 9, false, false, true, 0.0, 1, 0, 0.5};
  const std::string frame = EncodeVerdicts(in);
  FrameAssembler assembler;
  assembler.Feed(frame);
  MsgType type;
  std::string payload;
  ASSERT_TRUE(assembler.Next(&type, &payload));
  std::vector<VerdictRecord> out;
  ASSERT_TRUE(DecodeVerdicts(payload, &out));
  EXPECT_EQ(out, in);
}

TEST(Codec, WireRecordLengthsArePinned) {
  // The encoded width of every pinned wire record, measured on the bytes
  // the encoder writes, without the 5-byte frame header ([u32 length]
  // [u8 type]). The static_asserts beside each struct pin its fields; this
  // pins what the codec makes of them. Batches are measured as the growth
  // from an empty batch, so the u32 count prefix drops out too.
  constexpr std::size_t kFrameHeader = 5;
  ASSERT_EQ(EncodeQueryStats().size(), kFrameHeader);  // empty payload
  const std::vector<Sample> samples(3);
  EXPECT_EQ(EncodeSubmitBatch(samples).size() - EncodeSubmitBatch({}).size(),
            3 * 21u);
  EXPECT_EQ(EncodeWatermark(WatermarkInfo{}).size() - kFrameHeader, 25u);
  const std::vector<VerdictRecord> verdicts(3);
  EXPECT_EQ(EncodeVerdicts(verdicts).size() - EncodeVerdicts({}).size(),
            3 * 37u);
  EXPECT_EQ(EncodeStats(ServiceStats{}).size() - kFrameHeader, 68u);
  std::string header;
  runtime::PutRecordHeader(21, &header);
  EXPECT_EQ(header.size(), 4u);
  EXPECT_EQ(header.size(), runtime::FramedRecordHeader::kEncodedSize);
}

TEST(Codec, QualityAndStatsRoundTrip) {
  infer::DataQuality q;
  q.far_coverage_frac = 0.75;
  q.near_coverage_frac = 0.5;
  q.longest_gap_intervals = 17;
  q.days_observed = 40;
  q.total_days = 50;
  q.vp_churn_events = 2;
  FrameAssembler assembler;
  assembler.Feed(EncodeQuality(true, q));
  MsgType type;
  std::string payload;
  ASSERT_TRUE(assembler.Next(&type, &payload));
  bool found = false;
  infer::DataQuality rq;
  ASSERT_TRUE(DecodeQuality(payload, &found, &rq));
  EXPECT_TRUE(found);
  EXPECT_EQ(rq.longest_gap_intervals, 17);
  EXPECT_EQ(rq.days_observed, 40);
  EXPECT_DOUBLE_EQ(rq.far_coverage_frac, 0.75);

  ServiceStats stats;
  stats.samples = 123456789;
  stats.verdicts = 17;
  stats.links = 3;
  stats.last_closed_day = -2;
  stats.days_closed = 5;
  stats.shards = 4;
  stats.raw_points = 99;
  stats.samples_late = 6;
  stats.samples_rejected = 1;
  assembler.Feed(EncodeStats(stats));
  ASSERT_TRUE(assembler.Next(&type, &payload));
  ServiceStats rs;
  ASSERT_TRUE(DecodeStats(payload, &rs));
  EXPECT_EQ(rs, stats);
}

TEST(Codec, QualityCountersSaturateInsteadOfWrappingNegative) {
  // The wire carries the quality counters as u32; a hostile peer can put
  // 0xFFFFFFFF there (here produced by encoding -1). Decoding must saturate
  // to INT_MAX — a wrap to a negative count would corrupt every quality
  // fraction computed downstream.
  infer::DataQuality q;
  q.longest_gap_intervals = -1;
  q.days_observed = -1;
  q.total_days = -1;
  q.vp_churn_events = -1;
  FrameAssembler assembler;
  assembler.Feed(EncodeQuality(true, q));
  MsgType type;
  std::string payload;
  ASSERT_TRUE(assembler.Next(&type, &payload));
  bool found = false;
  infer::DataQuality rq;
  ASSERT_TRUE(DecodeQuality(payload, &found, &rq));
  EXPECT_EQ(rq.longest_gap_intervals, std::numeric_limits<int>::max());
  EXPECT_EQ(rq.days_observed, std::numeric_limits<int>::max());
  EXPECT_EQ(rq.total_days, std::numeric_limits<int>::max());
  EXPECT_EQ(rq.vp_churn_events, std::numeric_limits<int>::max());
}

TEST(Codec, RejectsMalformedPayloads) {
  std::uint32_t version = 0;
  EXPECT_FALSE(DecodeHello("abc", &version));        // short
  EXPECT_FALSE(DecodeHello("abcde", &version));      // trailing byte
  std::vector<Sample> samples;
  // Count claims more samples than the payload holds.
  Encoder e;
  e.PutU32(1000);
  EXPECT_FALSE(DecodeSubmitBatch(e.data(), &samples));
  // Out-of-range sample kind.
  Encoder bad;
  bad.PutU32(1);
  bad.PutI64(0);
  bad.PutU32(1);
  bad.PutU32(1);
  bad.PutU8(250);  // invalid kind
  bad.PutF32(1.0f);
  EXPECT_FALSE(DecodeSubmitBatch(bad.data(), &samples));
}

TEST(Codec, EncodeErrorClampsOversizedMessage) {
  // The length field is u16: a longer message must clamp first so the
  // field and the appended bytes agree (else DecodeError always rejects).
  const std::string message(70000, 'x');
  FrameAssembler assembler;
  assembler.Feed(EncodeError(7, message));
  MsgType type;
  std::string payload;
  ASSERT_TRUE(assembler.Next(&type, &payload));
  EXPECT_EQ(type, MsgType::kError);
  std::uint16_t code = 0;
  std::string out;
  ASSERT_TRUE(DecodeError(payload, &code, &out));
  EXPECT_EQ(code, 7);
  EXPECT_EQ(out.size(), 0xFFFFu);
}

TEST(FrameAssembler, ReassemblesByteAtATime) {
  const std::string frame =
      EncodeQueryRange(5, 0, 86400) + EncodeQueryStats();
  FrameAssembler assembler;
  MsgType type;
  std::string payload;
  int frames = 0;
  for (const char c : frame) {
    assembler.Feed(std::string_view(&c, 1));
    while (assembler.Next(&type, &payload)) ++frames;
  }
  EXPECT_EQ(frames, 2);
  EXPECT_FALSE(assembler.corrupt());
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(FrameAssembler, TruncatedFrameIsPendingNotCorrupt) {
  const std::string frame = EncodeQueryQuality(9);
  FrameAssembler assembler;
  assembler.Feed(std::string_view(frame.data(), frame.size() - 1));
  MsgType type;
  std::string payload;
  EXPECT_FALSE(assembler.Next(&type, &payload));
  EXPECT_FALSE(assembler.corrupt());
  EXPECT_GT(assembler.buffered(), 0u);
}

TEST(FrameAssembler, GarbagePoisonsTheStream) {
  {  // oversized length field
    FrameAssembler assembler;
    Encoder e;
    e.PutU32(kMaxFramePayload + 2);
    assembler.Feed(e.data());
    MsgType type;
    std::string payload;
    EXPECT_FALSE(assembler.Next(&type, &payload));
    EXPECT_TRUE(assembler.corrupt());
    // Poison is sticky: later valid frames are not parsed.
    assembler.Feed(EncodeQueryStats());
    EXPECT_FALSE(assembler.Next(&type, &payload));
  }
  {  // zero length
    FrameAssembler assembler;
    Encoder e;
    e.PutU32(0);
    assembler.Feed(e.data());
    MsgType type;
    std::string payload;
    EXPECT_FALSE(assembler.Next(&type, &payload));
    EXPECT_TRUE(assembler.corrupt());
  }
  {  // unknown message type
    FrameAssembler assembler;
    Encoder e;
    e.PutU32(1);
    e.PutU8(99);
    assembler.Feed(e.data());
    MsgType type;
    std::string payload;
    EXPECT_FALSE(assembler.Next(&type, &payload));
    EXPECT_TRUE(assembler.corrupt());
  }
}

// ---------------------------------------------------------------- engine

// The shard engine must classify exactly as a RollingAutocorr fed whole
// days, because StreamingClassifier shares its arithmetic.
TEST(ShardEngine, MatchesRollingAutocorrOnSampleStream) {
  const infer::AutocorrConfig config = SmallConfig();
  EngineConfig engine_config;
  engine_config.autocorr = config;
  ShardEngine engine(engine_config);
  infer::RollingAutocorr rolling(config);

  std::vector<float> far, near;
  std::vector<Sample> samples;
  for (std::int64_t day = 0; day < 10; ++day) {
    DayRows(0xC0FFEE, day, /*congested=*/true, far, near);
    samples.clear();
    RowsToSamples(/*link=*/4, /*vp=*/1, day, far, near, &samples);
    for (const Sample& s : samples) engine.Ingest(s);
    rolling.AddDay(far, near);

    const std::vector<VerdictRecord> verdicts = engine.CloseDay(day);
    if (!rolling.WindowFull()) {
      EXPECT_TRUE(verdicts.empty());
      continue;
    }
    const infer::DayClassification cls = rolling.Classify();
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(verdicts[0].day, day);
    EXPECT_EQ(verdicts[0].link, 4u);
    EXPECT_EQ(verdicts[0].contributors, 1u);
    EXPECT_EQ(verdicts[0].recurring, cls.recurring);
    if (cls.recurring) {
      EXPECT_DOUBLE_EQ(verdicts[0].fraction, cls.fraction);
    } else {
      EXPECT_DOUBLE_EQ(verdicts[0].fraction, 0.0);
    }
  }
}

TEST(ShardEngine, MergesVpsLikeTheBatchLoop) {
  const infer::AutocorrConfig config = SmallConfig();
  EngineConfig engine_config;
  engine_config.autocorr = config;
  ShardEngine engine(engine_config);
  // VP 1 sees congestion, VP 2 sees a quiet link (same link id).
  infer::RollingAutocorr r1(config), r2(config);
  std::vector<float> far, near;
  std::vector<Sample> samples;
  for (std::int64_t day = 0; day < 9; ++day) {
    samples.clear();
    DayRows(0xAAA, day, true, far, near);
    RowsToSamples(6, 1, day, far, near, &samples);
    r1.AddDay(far, near);
    DayRows(0xBBB, day, false, far, near);
    RowsToSamples(6, 2, day, far, near, &samples);
    r2.AddDay(far, near);
    for (const Sample& s : samples) engine.Ingest(s);
    const std::vector<VerdictRecord> verdicts = engine.CloseDay(day);
    if (!r1.WindowFull()) continue;
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(verdicts[0].contributors, 2u);
    const infer::DayClassification c1 = r1.Classify();
    const infer::DayClassification c2 = r2.Classify();
    double sum = 0.0;
    std::uint32_t asserting = 0;
    if (c1.recurring) {
      sum += c1.fraction;
      ++asserting;
    }
    if (c2.recurring) {
      sum += c2.fraction;
      ++asserting;
    }
    EXPECT_EQ(verdicts[0].asserting, asserting);
    const double want = asserting > 0 ? sum / asserting : 0.0;
    EXPECT_DOUBLE_EQ(verdicts[0].fraction, want);
  }
}

TEST(ShardEngine, LossSamplesDoNotFeedInference) {
  ShardEngine with_loss{EngineConfig{SmallConfig()}};
  ShardEngine without{EngineConfig{SmallConfig()}};
  std::vector<float> far, near;
  std::vector<Sample> samples;
  for (std::int64_t day = 0; day < 8; ++day) {
    samples.clear();
    DayRows(0xD0D0, day, true, far, near);
    RowsToSamples(3, 1, day, far, near, &samples);
    for (const Sample& s : samples) {
      with_loss.Ingest(s);
      without.Ingest(s);
    }
    with_loss.Ingest({day * stats::kSecPerDay + 1, 3, 1,
                      SampleKind::kLossRate, 0.02f});
    const auto a = with_loss.CloseDay(day);
    const auto b = without.CloseDay(day);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(ShardEngine, DropsSamplesForClosedDays) {
  ShardEngine engine{EngineConfig{SmallConfig()}};
  std::vector<float> far, near;
  std::vector<Sample> samples;
  DayRows(0xF00D, 0, false, far, near);
  RowsToSamples(1, 1, 0, far, near, &samples);
  for (const Sample& s : samples) engine.Ingest(s);
  engine.CloseDay(0);
  const std::uint64_t ingested = engine.samples_ingested();
  // A straggler for the closed day must not re-open its bins.
  engine.Ingest({10, 1, 1, SampleKind::kFarRtt, 5.0f});
  EXPECT_EQ(engine.samples_ingested(), ingested);
  EXPECT_EQ(engine.late_samples(), 1u);
}

TEST(StreamingClassifier, CloseDayEvictsStaleOpenDays) {
  infer::StreamingClassifier state(SmallConfig());
  state.AddSample(3, 0, true, 1.0f);
  state.AddSample(5, 0, true, 1.0f);
  EXPECT_EQ(state.OpenDays(), 2u);
  // Days close in ascending order, so day 3 can never close once day 5
  // does — it must be evicted, not held forever.
  state.CloseDay(5);
  EXPECT_EQ(state.OpenDays(), 0u);
}

// --------------------------------------------------- replay determinism

ServiceConfig SmallServiceConfig(int shards) {
  ServiceConfig config;
  config.shards = shards;
  config.engine.autocorr = SmallConfig();
  return config;
}

TEST(CongestionService, VerdictLogIsIdenticalAtAnyShardCount) {
  const std::vector<Sample> stream = SyntheticStream(/*links=*/5, /*days=*/12);
  std::string reference;
  for (const int shards : {1, 2, 3, 5}) {
    CongestionService service(SmallServiceConfig(shards));
    service.Start();
    EXPECT_EQ(service.SubmitBatch(stream).accepted, stream.size());
    service.FinishStream();
    const std::string log = service.VerdictLogText();
    service.Stop();
    EXPECT_FALSE(log.empty());
    if (shards == 1) {
      reference = log;
    } else {
      EXPECT_EQ(log, reference) << "shard count " << shards
                                << " diverged from the 1-shard log";
    }
  }
  // The log covers every post-window day and a congested link asserts.
  EXPECT_NE(reference.find("day=11"), std::string::npos);
  EXPECT_NE(reference.find("recurring=1"), std::string::npos);
}

// ---------------------------------------------------------------- queries

TEST(CongestionService, QueryPlaneSemantics) {
  const std::vector<Sample> stream = SyntheticStream(4, 10);
  CongestionService service(SmallServiceConfig(2));
  service.Start();
  EXPECT_EQ(service.SubmitBatch(stream).accepted, stream.size());
  service.FinishStream();

  // Link 2 is congested (even id); verdicts exist for days 5..9.
  const auto range =
      service.QueryRange(2, 0, 10 * stats::kSecPerDay);
  ASSERT_FALSE(range.empty());
  EXPECT_EQ(range.front().day, 5);
  EXPECT_EQ(range.back().day, 9);
  // Range excludes days outside [t0, t1).
  const auto partial = service.QueryRange(
      2, 6 * stats::kSecPerDay, 8 * stats::kSecPerDay);
  ASSERT_EQ(partial.size(), 2u);
  EXPECT_EQ(partial.front().day, 6);
  EXPECT_EQ(partial.back().day, 7);

  // Point query: latest verdict at or before t.
  const auto point =
      service.QueryPoint(2, 8 * stats::kSecPerDay + 7200);
  ASSERT_TRUE(point.has_value());
  EXPECT_EQ(point->day, 8);
  EXPECT_FALSE(service.QueryPoint(2, 0).has_value());
  EXPECT_FALSE(service.QueryPoint(999, 8 * stats::kSecPerDay).has_value());

  const auto quality = service.QueryQuality(2);
  ASSERT_TRUE(quality.has_value());
  EXPECT_GT(quality->far_coverage_frac, 0.8);
  EXPECT_EQ(quality->total_days, 10);
  EXPECT_FALSE(service.QueryQuality(999).has_value());

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.samples, stream.size());
  EXPECT_EQ(stats.shards, 2u);
  EXPECT_EQ(stats.last_closed_day, 9);
  EXPECT_EQ(stats.links, 4u);
  EXPECT_GT(stats.raw_points, 0u);
  service.Stop();
}

TEST(CongestionService, ManualClockClosesDaysInLiveMode) {
  runtime::ManualClock clock(0);
  ServiceConfig config = SmallServiceConfig(1);
  config.clock = &clock;
  CongestionService service(config);
  service.Start();

  std::vector<float> far, near;
  std::vector<Sample> samples;
  for (std::int64_t day = 0; day < 8; ++day) {
    samples.clear();
    DayRows(0xE0E0, day, true, far, near);
    RowsToSamples(1, 1, day, far, near, &samples);
    EXPECT_EQ(service.SubmitBatch(samples).accepted, samples.size());
  }
  // Stream-mode watermark closed days 0..6 (day 7 is still open).
  EXPECT_EQ(service.LastClosedDay(), 6);
  // Advancing the event clock past midnight of day 8 closes day 7.
  clock.Set(8 * stats::kSecPerDay + 1);
  service.PollClock();
  EXPECT_EQ(service.LastClosedDay(), 7);
  service.Stop();
}

// A wall clock reads a real-epoch day. The first poll starts the stream
// at today, so today's samples pass the max_day_jump check against the
// watermark and a sample from before the start is late.
TEST(CongestionService, ClockSeededStartAcceptsTodaysSamples) {
  constexpr std::int64_t kToday = 20'000;  // 2024-10-04
  runtime::ManualClock clock(stats::StartOfDay(kToday) + 3'600);
  ServiceConfig config = SmallServiceConfig(1);
  config.clock = &clock;
  CongestionService service(config);
  service.Start();
  service.PollClock();
  EXPECT_EQ(service.Watermark().watermark_t, stats::StartOfDay(kToday));
  EXPECT_EQ(service.Watermark().last_closed_day, kToday - 1);
  EXPECT_EQ(service.LastClosedDay(), kNoDayClosed);  // the seed closes nothing
  EXPECT_EQ(service.Submit({clock.NowSec(), 1, 1, SampleKind::kFarRtt, 5.0f}),
            SubmitOutcome::kAccepted);
  EXPECT_EQ(service.Submit({stats::StartOfDay(kToday - 1), 1, 1,
                            SampleKind::kFarRtt, 5.0f}),
            SubmitOutcome::kLate);
  // The next midnight closes today as usual.
  clock.Set(stats::StartOfDay(kToday + 1) + 1);
  service.PollClock();
  EXPECT_EQ(service.LastClosedDay(), kToday);
  service.Stop();
}

TEST(CongestionService, RetentionTrimsRawPoints) {
  ServiceConfig unbounded = SmallServiceConfig(1);
  ServiceConfig bounded = SmallServiceConfig(1);
  bounded.retention_horizon_s = 2 * stats::kSecPerDay;
  const std::vector<Sample> stream = SyntheticStream(2, 10);
  CongestionService a(unbounded), b(bounded);
  a.Start();
  b.Start();
  EXPECT_EQ(a.SubmitBatch(stream).accepted, stream.size());
  EXPECT_EQ(b.SubmitBatch(stream).accepted, stream.size());
  a.FinishStream();
  b.FinishStream();
  EXPECT_LT(b.Stats().raw_points, a.Stats().raw_points);
  EXPECT_GT(b.Stats().raw_points, 0u);
  // Retention never touches verdicts.
  EXPECT_EQ(a.VerdictLogText(), b.VerdictLogText());
  a.Stop();
  b.Stop();
}

// -------------------------------------------------- ingest admission bounds

TEST(CongestionService, RejectsImplausibleTimestamps) {
  CongestionService service(SmallServiceConfig(2));
  service.Start();
  const std::vector<Sample> warmup = SyntheticStream(/*links=*/2, /*days=*/3);
  EXPECT_EQ(service.SubmitBatch(warmup).accepted, warmup.size());
  // One hostile sample with t near INT64_MAX must not send the close loop
  // walking ~1e14 days.
  EXPECT_EQ(service.Submit({std::numeric_limits<TimeSec>::max() - 1, 1, 1,
                            SampleKind::kFarRtt, 1.0f}),
            SubmitOutcome::kRejected);
  // A jump past the watermark beyond max_day_jump is rejected too...
  EXPECT_EQ(service.Submit({(2 + 400) * stats::kSecPerDay, 1, 1,
                            SampleKind::kFarRtt, 1.0f}),
            SubmitOutcome::kRejected);
  // ...while a plausible forward jump is not.
  EXPECT_EQ(service.Submit({5 * stats::kSecPerDay, 1, 1, SampleKind::kFarRtt,
                            1.0f}),
            SubmitOutcome::kAccepted);
  // Flush returns promptly because rejected samples never moved the
  // watermark.
  EXPECT_EQ(service.FinishStream(), 5);
  EXPECT_EQ(service.Stats().samples_rejected, 2u);
  service.Stop();
}

TEST(CongestionService, DropsAndCountsLateSamples) {
  const std::vector<Sample> stream = SyntheticStream(2, 8);
  CongestionService clean(SmallServiceConfig(2));
  CongestionService dirty(SmallServiceConfig(2));
  clean.Start();
  dirty.Start();
  EXPECT_EQ(clean.SubmitBatch(stream).accepted, stream.size());
  EXPECT_EQ(dirty.SubmitBatch(stream).accepted, stream.size());
  // The watermark sits in day 7, so day 1 closed long ago: a straggler for
  // it can never produce a verdict and must not leak open bins.
  EXPECT_EQ(dirty.Submit({stats::kSecPerDay + 7, 1, 1, SampleKind::kFarRtt,
                          99.0f}),
            SubmitOutcome::kLate);
  clean.FinishStream();
  dirty.FinishStream();
  EXPECT_EQ(dirty.Stats().samples_late, 1u);
  EXPECT_EQ(clean.Stats().samples_late, 0u);
  // The dropped straggler leaves the verdict log untouched.
  EXPECT_EQ(dirty.VerdictLogText(), clean.VerdictLogText());
  clean.Stop();
  dirty.Stop();
}

// ---------------------------------------------------------------- session

TEST(Session, HandlesFragmentedDelivery) {
  CongestionService service(SmallServiceConfig(1));
  service.Start();
  Session session(&service);

  std::string wire = EncodeHello();
  const std::vector<Sample> stream = SyntheticStream(1, 8);
  wire += EncodeSubmitBatch(stream);
  wire += EncodeFlush();
  wire += EncodeQueryRange(1, 0, 8 * stats::kSecPerDay);

  // Deliver in 7-byte fragments.
  std::string out;
  for (std::size_t i = 0; i < wire.size(); i += 7) {
    ASSERT_TRUE(session.Consume(wire.substr(i, 7), &out));
  }
  EXPECT_EQ(session.frames_handled(), 4u);

  FrameAssembler replies;
  replies.Feed(out);
  MsgType type;
  std::string payload;
  ASSERT_TRUE(replies.Next(&type, &payload));
  EXPECT_EQ(type, MsgType::kHelloAck);
  ASSERT_TRUE(replies.Next(&type, &payload));
  EXPECT_EQ(type, MsgType::kSubmitAck);
  ASSERT_TRUE(replies.Next(&type, &payload));
  EXPECT_EQ(type, MsgType::kFlushAck);
  std::int64_t last_day = 0;
  ASSERT_TRUE(DecodeFlushAck(payload, &last_day));
  EXPECT_EQ(last_day, 7);
  ASSERT_TRUE(replies.Next(&type, &payload));
  EXPECT_EQ(type, MsgType::kVerdicts);
  std::vector<VerdictRecord> verdicts;
  ASSERT_TRUE(DecodeVerdicts(payload, &verdicts));
  EXPECT_FALSE(verdicts.empty());
  service.Stop();
}

TEST(Session, RejectsQueryBeforeHello) {
  CongestionService service(SmallServiceConfig(1));
  Session session(&service);
  std::string out;
  EXPECT_FALSE(session.Consume(EncodeQueryStats(), &out));
  FrameAssembler replies;
  replies.Feed(out);
  MsgType type;
  std::string payload;
  ASSERT_TRUE(replies.Next(&type, &payload));
  EXPECT_EQ(type, MsgType::kError);
  std::uint16_t code = 0;
  std::string message;
  ASSERT_TRUE(DecodeError(payload, &code, &message));
  EXPECT_EQ(code, kErrUnexpected);
  // A dead session stays dead.
  EXPECT_FALSE(session.Consume(EncodeHello(), &out));
}

TEST(Session, RejectsGarbageBytes) {
  CongestionService service(SmallServiceConfig(1));
  Session session(&service);
  std::string out;
  ASSERT_TRUE(session.Consume(EncodeHello(), &out));
  out.clear();
  EXPECT_FALSE(session.Consume("\xff\xff\xff\xff garbage", &out));
  FrameAssembler replies;
  replies.Feed(out);
  MsgType type;
  std::string payload;
  ASSERT_TRUE(replies.Next(&type, &payload));
  EXPECT_EQ(type, MsgType::kError);
}

TEST(Session, OutOfBoundsTimestampDropsTheConnection) {
  CongestionService service(SmallServiceConfig(1));
  service.Start();
  Session session(&service);
  std::string out;
  ASSERT_TRUE(session.Consume(EncodeHello(), &out));
  out.clear();
  const std::vector<Sample> hostile = {
      {std::numeric_limits<TimeSec>::max() - 1, 1, 1, SampleKind::kFarRtt,
       1.0f}};
  EXPECT_FALSE(session.Consume(EncodeSubmitBatch(hostile), &out));
  FrameAssembler replies;
  replies.Feed(out);
  MsgType type;
  std::string payload;
  ASSERT_TRUE(replies.Next(&type, &payload));
  EXPECT_EQ(type, MsgType::kError);
  std::uint16_t code = 0;
  std::string message;
  ASSERT_TRUE(DecodeError(payload, &code, &message));
  EXPECT_EQ(code, kErrBadTimestamp);
  service.Stop();
}

// ----------------------------------------------------------------- daemon

TEST(TcpDaemon, ServesConcurrentClientsEndToEnd) {
  CongestionService service(SmallServiceConfig(2));
  service.Start();
  TcpDaemon daemon(&service);
  ASSERT_TRUE(daemon.Listen(0));
  std::thread loop([&] { daemon.Run(); });

  {
    BlockingClient feeder;
    ASSERT_TRUE(feeder.Connect(daemon.port()));
    EXPECT_EQ(feeder.server_shards(), 2u);
    const std::vector<Sample> stream = SyntheticStream(3, 9);
    // Submit in chunks, exercising multiple frames.
    std::size_t i = 0;
    while (i < stream.size()) {
      const std::size_t n = std::min<std::size_t>(1000, stream.size() - i);
      ASSERT_TRUE(
          feeder.Submit(std::span<const Sample>(stream.data() + i, n)));
      i += n;
    }
    const auto last_day = feeder.Flush();
    ASSERT_TRUE(last_day.has_value());
    EXPECT_EQ(*last_day, 8);

    // A second concurrent client queries while the feeder is connected.
    BlockingClient reader;
    ASSERT_TRUE(reader.Connect(daemon.port()));
    const auto range = reader.QueryRange(2, 0, 9 * stats::kSecPerDay);
    ASSERT_TRUE(range.has_value());
    EXPECT_FALSE(range->empty());
    EXPECT_TRUE(range->back().recurring);
    const auto point = reader.QueryPoint(2, 8 * stats::kSecPerDay);
    ASSERT_TRUE(point.has_value());
    EXPECT_EQ(point->day, 8);
    const auto quality = reader.QueryQuality(2);
    ASSERT_TRUE(quality.has_value());
    EXPECT_GT(quality->days_observed, 0);
    const auto stats = reader.QueryStats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->shards, 2u);
    EXPECT_EQ(stats->last_closed_day, 8);
  }

  daemon.Shutdown();
  loop.join();
  service.Stop();
}

TEST(TcpDaemon, DropsMisbehavingClientButSurvives) {
  CongestionService service(SmallServiceConfig(1));
  service.Start();
  TcpDaemon daemon(&service);
  ASSERT_TRUE(daemon.Listen(0));
  std::thread loop([&] { daemon.Run(); });

  {
    // A raw socket that speaks pure garbage: the daemon must answer with a
    // kError frame and close the connection.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(daemon.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const char garbage[] = "\xff\xff\xff\xff not a frame at all";
    ASSERT_GT(::send(fd, garbage, sizeof(garbage) - 1, 0), 0);
    // Read until the peer closes; the last complete frame must be an error.
    std::string bytes;
    char buf[512];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      bytes.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    FrameAssembler replies;
    replies.Feed(bytes);
    MsgType type;
    std::string payload;
    ASSERT_TRUE(replies.Next(&type, &payload));
    EXPECT_EQ(type, MsgType::kError);
    std::uint16_t code = 0;
    std::string message;
    ASSERT_TRUE(DecodeError(payload, &code, &message));
    EXPECT_EQ(code, kErrCorruptStream);

    // The daemon must still serve well-behaved clients afterwards.
    BlockingClient good;
    ASSERT_TRUE(good.Connect(daemon.port()));
    const auto stats = good.QueryStats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->shards, 1u);
  }

  daemon.Shutdown();
  loop.join();
  service.Stop();
}

TEST(TcpDaemon, ShedsClientWhoseOutboxExceedsTheCap) {
  CongestionService service(SmallServiceConfig(1));
  service.Start();
  const std::vector<Sample> fill = SyntheticStream(/*links=*/5, /*days=*/12);
  EXPECT_EQ(service.SubmitBatch(fill).accepted, fill.size());
  service.FinishStream();
  TcpDaemon daemon(&service);
  // Handshake and stats replies fit under the cap; a multi-day verdict
  // range reply does not.
  daemon.set_max_outbox_bytes(128);
  ASSERT_TRUE(daemon.Listen(0));
  std::thread loop([&] { daemon.Run(); });
  {
    BlockingClient client;
    ASSERT_TRUE(client.Connect(daemon.port()));
    // The oversized reply is flushed best-effort, then the peer is shed.
    const auto range = client.QueryRange(2, 0, 12 * stats::kSecPerDay);
    ASSERT_TRUE(range.has_value());
    EXPECT_FALSE(range->empty());
    EXPECT_FALSE(client.QueryStats().has_value());  // connection is gone

    // The daemon survives and serves a fresh client.
    BlockingClient fresh;
    ASSERT_TRUE(fresh.Connect(daemon.port()));
    EXPECT_TRUE(fresh.QueryStats().has_value());
  }
  daemon.Shutdown();
  loop.join();
  service.Stop();
}

// ------------------------------------------------------------------ clock

TEST(Clock, ManualClockSetAndAdvance) {
  runtime::ManualClock clock(100);
  EXPECT_EQ(clock.NowSec(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.NowSec(), 150);
  clock.Set(1000);
  EXPECT_EQ(clock.NowSec(), 1000);
}

TEST(Clock, WallClockIsMonotoneNonDecreasing) {
  runtime::WallClock clock;
  const stats::TimeSec a = clock.NowSec();
  const stats::TimeSec b = clock.NowSec();
  EXPECT_LE(a, b);
}

TEST(Verdict, FormatLineIsStable) {
  VerdictRecord v;
  v.day = 12;
  v.link = 7;
  v.recurring = true;
  v.congested = true;
  v.quality_ok = true;
  v.fraction = 0.125;
  v.contributors = 3;
  v.asserting = 2;
  v.far_coverage_frac = 0.9375;
  EXPECT_EQ(FormatVerdictLine(v),
            "day=12 link=7 recurring=1 congested=1 frac=0.125000000 "
            "vps=2/3 quality=1 farcov=0.937500\n");
}

}  // namespace
}  // namespace manic::serve
