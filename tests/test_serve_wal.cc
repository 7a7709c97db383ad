// Crash-safety tests for the serving plane's WAL (src/serve/wal) and its
// integration into CongestionService: round-trip and clean-shutdown
// markers, segment rotation, the pinned segment bytes, damage that is not a
// torn tail, ENOSPC-mid-append degradation and the shed contract,
// watermark-driven deduplication, the WAL as the recording of a run
// (recorded at 1 shard, recovered at 4), hostile timestamps and markers, and
// the deterministic I/O fault script itself. The torn-tail, double-crash
// and short-write cases of the underlying framed log live in
// tests/test_framed_log.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "runtime/clock.h"
#include "runtime/io_fault.h"
#include "serve/codec.h"
#include "serve/sample.h"
#include "serve/service.h"
#include "serve/session.h"
#include "serve/wal.h"
#include "stats/calendar.h"

namespace manic::serve {
namespace {

namespace fs = std::filesystem;

// A scratch WAL directory, removed on destruction.
struct WalDir {
  explicit WalDir(const char* tag)
      : path(::testing::TempDir() + "/manic_wal_" + tag) {
    fs::remove_all(path);
  }
  ~WalDir() { fs::remove_all(path); }
  std::string path;
};

Sample MakeSample(std::int64_t day, int slot, topo::LinkId link,
                  topo::VpId vp = 1,
                  SampleKind kind = SampleKind::kFarRtt) {
  Sample s;
  s.t = day * stats::kSecPerDay + slot * 3600 + 1800;
  s.link = link;
  s.vp = vp;
  s.kind = kind;
  s.value = 10.0f + static_cast<float>(slot);
  return s;
}

std::vector<Sample> SmallBatch(std::int64_t day, int count) {
  std::vector<Sample> batch;
  for (int i = 0; i < count; ++i) {
    batch.push_back(MakeSample(day, i % 24, 1 + i % 3));
  }
  return batch;
}

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

// `days` days x `links` links of far and near samples, day-major, as a
// collector would emit them.
std::vector<Sample> DayMajorStream(std::int64_t days, topo::LinkId links) {
  std::vector<Sample> stream;
  for (std::int64_t day = 0; day < days; ++day) {
    for (topo::LinkId link = 1; link <= links; ++link) {
      for (int slot = 0; slot < 24; ++slot) {
        stream.push_back(MakeSample(day, slot, link));
        stream.push_back(
            MakeSample(day, slot, link, 1, SampleKind::kNearRtt));
      }
    }
  }
  return stream;
}

ServiceConfig WalServiceConfig(const std::string& wal_dir, int shards = 1) {
  ServiceConfig config;
  config.shards = shards;
  config.engine.autocorr = SmallConfig();
  config.wal_dir = wal_dir;
  config.wal_fsync = WalFsync::kNone;  // crash model = process kill
  return config;
}

// ------------------------------------------------------------- round trip

TEST(WalWriter, RoundTripsSamplesAndCloses) {
  WalDir dir("roundtrip");
  const std::vector<Sample> batch1 = SmallBatch(5, 7);
  const std::vector<Sample> batch2 = SmallBatch(6, 3);
  {
    WalWriter writer;
    WalConfig config;
    config.dir = dir.path;
    ASSERT_EQ(writer.Open(config), WalStatus::kOk);
    EXPECT_EQ(writer.AppendSamples(batch1), WalStatus::kOk);
    EXPECT_EQ(writer.AppendClose(5), WalStatus::kOk);
    EXPECT_EQ(writer.AppendSamples(batch2), WalStatus::kOk);
    EXPECT_EQ(writer.records_appended(), 3u);
    writer.Abandon();  // unclean: what a crash leaves behind
  }
  std::vector<Sample> replayed;
  std::vector<std::int64_t> closes;
  const WalRecoverStats stats = ReadWal(
      dir.path,
      [&](std::span<const Sample> batch) {
        replayed.insert(replayed.end(), batch.begin(), batch.end());
      },
      [&](std::int64_t day) { closes.push_back(day); });
  EXPECT_TRUE(stats.ok) << stats.error;
  EXPECT_FALSE(stats.clean_shutdown);
  EXPECT_EQ(stats.segments, 1u);
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.samples, batch1.size() + batch2.size());
  EXPECT_EQ(stats.closes, 1u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
  ASSERT_EQ(closes, (std::vector<std::int64_t>{5}));
  ASSERT_EQ(replayed.size(), batch1.size() + batch2.size());
  // Bit-exact replay, order preserved.
  for (std::size_t i = 0; i < batch1.size(); ++i) {
    EXPECT_EQ(replayed[i].t, batch1[i].t);
    EXPECT_EQ(replayed[i].link, batch1[i].link);
    EXPECT_EQ(replayed[i].value, batch1[i].value);
  }
}

TEST(WalWriter, CleanMarkerLifecycle) {
  WalDir dir("clean");
  WalConfig config;
  config.dir = dir.path;
  {
    WalWriter writer;
    ASSERT_EQ(writer.Open(config), WalStatus::kOk);
    EXPECT_EQ(writer.AppendSamples(SmallBatch(1, 2)), WalStatus::kOk);
    EXPECT_EQ(writer.CloseClean(), WalStatus::kOk);
  }
  EXPECT_TRUE(fs::exists(dir.path + "/wal-clean"));
  const WalRecoverStats stats =
      ReadWal(dir.path, [](std::span<const Sample>) {}, [](std::int64_t) {});
  EXPECT_TRUE(stats.ok);
  EXPECT_TRUE(stats.clean_shutdown);
  // Appending again invalidates the marker.
  WalWriter writer;
  ASSERT_EQ(writer.Open(config), WalStatus::kOk);
  EXPECT_FALSE(fs::exists(dir.path + "/wal-clean"));
  EXPECT_EQ(writer.segments_opened(), 1u);
}

TEST(WalWriter, SegmentsRotateAndReplayInOrder) {
  WalDir dir("rotate");
  WalConfig config;
  config.dir = dir.path;
  config.segment_bytes = 64;  // force a rotation on nearly every append
  WalWriter writer;
  ASSERT_EQ(writer.Open(config), WalStatus::kOk);
  for (std::int64_t day = 1; day <= 5; ++day) {
    ASSERT_EQ(writer.AppendSamples(SmallBatch(day, 4)), WalStatus::kOk);
    ASSERT_EQ(writer.AppendClose(day), WalStatus::kOk);
  }
  EXPECT_GT(writer.segments_opened(), 1u);
  writer.Abandon();
  std::vector<std::int64_t> closes;
  std::uint64_t samples = 0;
  const WalRecoverStats stats = ReadWal(
      dir.path,
      [&](std::span<const Sample> batch) { samples += batch.size(); },
      [&](std::int64_t day) { closes.push_back(day); });
  EXPECT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.segments, writer.segments_opened());
  EXPECT_EQ(samples, 20u);
  EXPECT_EQ(closes, (std::vector<std::int64_t>{1, 2, 3, 4, 5}));
}

// ------------------------------------------------------------ format pin

// 64-bit FNV-1a (the StudyGolden digest), so a whole directory pins to one
// constant.
std::uint64_t Fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Pins the on-disk bytes of a small fixed WAL: odd-sized batches, two day
// closes, a rotation and the clean marker. Any change to the segment magic,
// the record framing or the codec frames inside moves the digest — a
// deliberate format bump updates it, nothing else may.
TEST(WalFormat, SegmentBytesArePinned) {
  WalDir dir("golden");
  {
    WalConfig config;
    config.dir = dir.path;
    config.segment_bytes = 300;
    WalWriter writer;
    ASSERT_EQ(writer.Open(config), WalStatus::kOk);
    ASSERT_EQ(writer.AppendSamples(SmallBatch(3, 7)), WalStatus::kOk);
    ASSERT_EQ(writer.AppendSamples(SmallBatch(3, 5)), WalStatus::kOk);
    ASSERT_EQ(writer.AppendClose(3), WalStatus::kOk);
    ASSERT_EQ(writer.AppendSamples(SmallBatch(4, 13)), WalStatus::kOk);
    ASSERT_EQ(writer.AppendClose(4), WalStatus::kOk);
    ASSERT_EQ(writer.AppendSamples(SmallBatch(5, 1)), WalStatus::kOk);
    ASSERT_EQ(writer.CloseClean(), WalStatus::kOk);
    ASSERT_EQ(writer.segments_opened(), 2u);
  }
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  ASSERT_EQ(names, (std::vector<std::string>{"wal-000001.seg",
                                             "wal-000002.seg", "wal-clean"}));
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const std::string& name : names) {
    std::ifstream in(dir.path + "/" + name, std::ios::binary);
    digest = Fnv1a(digest, name);
    digest = Fnv1a(digest, std::string((std::istreambuf_iterator<char>(in)),
                                       std::istreambuf_iterator<char>()));
  }
  EXPECT_EQ(digest, 0xa3fc2092daa5f513ULL);
}

// ------------------------------------------------- damage vs. a torn tail

TEST(WalRecovery, RejectsDamageThatIsNotATornTail) {
  // Torn bytes in a NON-final segment = damage, not interruption.
  WalDir dir("damage");
  WalConfig config;
  config.dir = dir.path;
  {
    WalWriter writer;
    ASSERT_EQ(writer.Open(config), WalStatus::kOk);
    ASSERT_EQ(writer.AppendSamples(SmallBatch(1, 2)), WalStatus::kOk);
    writer.Abandon();
  }
  {
    std::ofstream out(dir.path + "/wal-000001.seg",
                      std::ios::binary | std::ios::app);
    out.write("\x40\x00", 2);  // torn tail on segment 1...
  }
  {
    WalWriter writer;  // ...which a second incarnation makes non-final
    ASSERT_EQ(writer.Open(config), WalStatus::kOk);
    ASSERT_EQ(writer.AppendSamples(SmallBatch(2, 2)), WalStatus::kOk);
    writer.Abandon();
  }
  const WalRecoverStats stats =
      ReadWal(dir.path, [](std::span<const Sample>) {}, [](std::int64_t) {});
  EXPECT_FALSE(stats.ok);
  EXPECT_NE(stats.error.find("torn record inside non-final"),
            std::string::npos);
}

// A record torn mid-body at the end of the newest segment is an interrupted
// append: recovery chops it off that file, so a second recovery finds
// nothing to chop and replays the same records.
TEST(WalRecovery, TornTailOfFinalSegmentIsChoppedOffTheFile) {
  WalDir dir("torn_final");
  WalConfig config;
  config.dir = dir.path;
  for (const std::int64_t day : {1, 2}) {
    WalWriter writer;  // one incarnation, one segment, per day
    ASSERT_EQ(writer.Open(config), WalStatus::kOk);
    ASSERT_EQ(writer.AppendSamples(SmallBatch(day, 2)), WalStatus::kOk);
    writer.Abandon();
  }
  const std::string last = dir.path + "/wal-000002.seg";
  const std::uintmax_t whole_size = fs::file_size(last);
  {
    const std::vector<Sample> batch = SmallBatch(3, 2);
    std::ofstream out(last, std::ios::binary | std::ios::app);
    out << EncodeSubmitBatch(batch).substr(0, 7);  // header, type, 2 bytes
  }
  for (const std::uint64_t torn : {7u, 0u}) {
    std::uint64_t samples = 0;
    const WalRecoverStats stats = ReadWal(
        dir.path,
        [&](std::span<const Sample> batch) { samples += batch.size(); },
        [](std::int64_t) {});
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_EQ(stats.segments, 2u);
    EXPECT_EQ(samples, 4u);
    EXPECT_EQ(stats.truncated_bytes, torn);
    EXPECT_EQ(fs::file_size(last), whole_size);
  }
}

TEST(WalRecovery, ForeignFrameTypeIsAnError) {
  WalDir dir("foreign");
  fs::create_directories(dir.path);
  {
    std::ofstream out(dir.path + "/wal-000001.seg", std::ios::binary);
    out << "MANICWAL1\n" << EncodeQueryStats();  // not a WAL record type
  }
  const WalRecoverStats stats =
      ReadWal(dir.path, [](std::span<const Sample>) {}, [](std::int64_t) {});
  EXPECT_FALSE(stats.ok);
  EXPECT_NE(stats.error.find("foreign frame"), std::string::npos);
}

TEST(WalRecovery, ShortFinalSegmentIsRemovedNotFatal) {
  // Killed while stamping the magic of a brand-new segment: nothing durable
  // was lost, the stub is removed.
  WalDir dir("stub");
  WalConfig config;
  config.dir = dir.path;
  {
    WalWriter writer;
    ASSERT_EQ(writer.Open(config), WalStatus::kOk);
    ASSERT_EQ(writer.AppendSamples(SmallBatch(1, 3)), WalStatus::kOk);
    writer.Abandon();
  }
  {
    std::ofstream out(dir.path + "/wal-000002.seg", std::ios::binary);
    out << "MANI";  // 4 of 10 magic bytes
  }
  std::uint64_t samples = 0;
  const WalRecoverStats stats = ReadWal(
      dir.path, [&](std::span<const Sample> b) { samples += b.size(); },
      [](std::int64_t) {});
  EXPECT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(samples, 3u);
  EXPECT_EQ(stats.truncated_bytes, 4u);
  EXPECT_FALSE(fs::exists(dir.path + "/wal-000002.seg"));
}

// ----------------------------------------------------- service integration

// Uncrashed WAL-on run vs a "crash" (drop the service mid-stream without
// CloseWalClean) + recovery + resume-from-watermark: byte-identical logs,
// at more than one shard count.
TEST(ServiceWal, CrashRecoveryMatchesUncrashedRunByteForByte) {
  const std::vector<Sample> stream = DayMajorStream(9, 4);
  for (const int shards : {1, 4}) {
    // Reference: no WAL, one uninterrupted pass.
    ServiceConfig plain;
    plain.shards = shards;
    plain.engine.autocorr = SmallConfig();
    CongestionService reference(plain);
    reference.Start();
    ASSERT_EQ(reference.SubmitBatch(stream).accepted, stream.size());
    reference.FinishStream();
    const std::string want = reference.VerdictLogText();
    reference.Stop();
    ASSERT_FALSE(want.empty());

    WalDir dir("svc_crash");
    std::uint64_t resume = 0;
    {
      // First incarnation: half the stream in odd-sized batches, then die
      // (scope exit without CloseWalClean = the crash).
      CongestionService victim(WalServiceConfig(dir.path, shards));
      ASSERT_TRUE(victim.RecoverFromWal().ok);
      std::size_t offset = 0;
      const std::size_t half = stream.size() / 2;
      while (offset < half) {
        const std::size_t n = std::min<std::size_t>(37, half - offset);
        const SubmitSummary summary = victim.SubmitBatch(
            std::span<const Sample>(stream.data() + offset, n));
        ASSERT_EQ(summary.accepted, n);
        offset += n;
      }
      resume = victim.Watermark().samples_consumed;
      EXPECT_EQ(resume, half);
      victim.Stop();
    }
    // Second incarnation: recover, resume at the watermark, finish.
    CongestionService recovered(WalServiceConfig(dir.path, shards));
    const WalRecoverStats stats = recovered.RecoverFromWal();
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_FALSE(stats.clean_shutdown);
    EXPECT_EQ(stats.samples, resume);
    EXPECT_EQ(recovered.Watermark().samples_consumed, resume);
    ASSERT_EQ(
        recovered
            .SubmitBatch(std::span<const Sample>(
                stream.data() + resume, stream.size() - resume))
            .accepted,
        stream.size() - resume);
    recovered.FinishStream();
    EXPECT_EQ(recovered.Watermark().samples_consumed, stream.size());
    EXPECT_EQ(recovered.VerdictLogText(), want) << "shards " << shards;
    EXPECT_EQ(recovered.CloseWalClean(), WalStatus::kOk);
    recovered.Stop();
  }
}

// ENOSPC mid-append: the batch that hit the wall reports shed (never
// acked), ingest sheds from then on, queries keep working, and a restart
// recovers exactly the durable prefix.
TEST(ServiceWal, EnospcDegradesShedsAndRecoversDurablePrefix) {
  WalDir dir("enospc");
  runtime::ScriptedIoFaults::Config fault_config;
  fault_config.enospc_at_op = 2;  // op 0 = magic, op 1 = first record, op 2 dies
  runtime::ScriptedIoFaults faults(fault_config);

  ServiceConfig config = WalServiceConfig(dir.path);
  config.wal_fault_hook = &faults;
  CongestionService service(config);
  ASSERT_TRUE(service.RecoverFromWal().ok);

  const std::vector<Sample> first = SmallBatch(1, 6);
  const SubmitSummary ok_batch = service.SubmitBatch(first);
  EXPECT_EQ(ok_batch.accepted, first.size());
  EXPECT_FALSE(service.degraded());
  EXPECT_EQ(service.Watermark().samples_consumed, first.size());

  // Fresh day-2 samples: the first advances the watermark, and the day-1
  // close's WAL flush is what hits the ENOSPC wall — degradation striking
  // mid-batch, inside CloseThrough, must still convert the ack to shed.
  const std::vector<Sample> doomed = SmallBatch(2, 4);
  const SubmitSummary bad_batch = service.SubmitBatch(doomed);
  EXPECT_EQ(bad_batch.accepted, 0u);
  EXPECT_EQ(bad_batch.shed, doomed.size());
  EXPECT_TRUE(service.degraded());
  // The durable watermark froze at the last successful flush.
  const WatermarkInfo info = service.Watermark();
  EXPECT_EQ(info.samples_consumed, first.size());
  EXPECT_TRUE(info.degraded);
  // Every later submit sheds without touching ingest state.
  EXPECT_EQ(service.Submit(MakeSample(1, 3, 2)), SubmitOutcome::kShed);
  // The query plane still answers.
  EXPECT_EQ(service.Stats().shards, 1u);
  EXPECT_EQ(service.CloseWalClean(), WalStatus::kIoError);
  service.Stop();

  // Restart without faults: exactly the durable prefix comes back.
  CongestionService recovered(WalServiceConfig(dir.path));
  const WalRecoverStats stats = recovered.RecoverFromWal();
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.samples, first.size());
  EXPECT_EQ(recovered.Watermark().samples_consumed, first.size());
  EXPECT_FALSE(recovered.degraded());
  recovered.Stop();
}

// The session layer turns a shed batch into kErrDegraded but keeps the
// connection: queries still answer on the same session.
TEST(ServiceWal, SessionKeepsConnectionWhenDegraded) {
  WalDir dir("sess_degraded");
  runtime::ScriptedIoFaults::Config fault_config;
  fault_config.enospc_at_op = 1;  // first record append fails
  runtime::ScriptedIoFaults faults(fault_config);
  ServiceConfig config = WalServiceConfig(dir.path);
  config.wal_fault_hook = &faults;
  CongestionService service(config);
  ASSERT_TRUE(service.RecoverFromWal().ok);

  Session session(&service);
  std::string out;
  ASSERT_TRUE(session.Consume(EncodeHello(), &out));
  out.clear();
  const std::vector<Sample> batch = SmallBatch(1, 3);
  // Shed batch: the session must answer kError(kErrDegraded) AND keep the
  // connection alive.
  ASSERT_TRUE(session.Consume(EncodeSubmitBatch(batch), &out));
  FrameAssembler assembler;
  assembler.Feed(out);
  MsgType type;
  std::string payload;
  ASSERT_TRUE(assembler.Next(&type, &payload));
  ASSERT_EQ(type, MsgType::kError);
  std::uint16_t code = 0;
  std::string message;
  ASSERT_TRUE(DecodeError(payload, &code, &message));
  EXPECT_EQ(code, kErrDegraded);
  // Still serving: a stats query round-trips on the same session.
  out.clear();
  ASSERT_TRUE(session.Consume(EncodeQueryStats(), &out));
  assembler.Feed(out);
  ASSERT_TRUE(assembler.Next(&type, &payload));
  EXPECT_EQ(type, MsgType::kStats);
  // And the watermark reply flags the degradation.
  out.clear();
  ASSERT_TRUE(session.Consume(EncodeGetWatermark(), &out));
  assembler.Feed(out);
  ASSERT_TRUE(assembler.Next(&type, &payload));
  ASSERT_EQ(type, MsgType::kWatermark);
  WatermarkInfo info;
  ASSERT_TRUE(DecodeWatermark(payload, &info));
  EXPECT_TRUE(info.degraded);
  EXPECT_EQ(info.samples_consumed, 0u);
  service.Stop();
}

// A WAL directory is the recording of a run: written by a 1-shard service,
// copied, and recovered into a fresh 4-shard one, it replays the stream
// into the live run's verdict log byte for byte.
TEST(CongestionService, RecordedStreamReplaysIdentically) {
  const std::vector<Sample> stream = DayMajorStream(10, 3);
  WalDir recording("recording");
  WalDir copy("recording_copy");
  std::string live_log;
  {
    CongestionService live(WalServiceConfig(recording.path, 1));
    ASSERT_TRUE(live.RecoverFromWal().ok);
    for (std::size_t i = 0; i < stream.size(); i += 257) {
      const std::size_t n = std::min<std::size_t>(257, stream.size() - i);
      ASSERT_EQ(live.SubmitBatch(std::span<const Sample>(stream.data() + i, n))
                    .accepted,
                n);
    }
    live.FinishStream();
    live_log = live.VerdictLogText();
    ASSERT_EQ(live.CloseWalClean(), WalStatus::kOk);
    live.Stop();
  }
  ASSERT_FALSE(live_log.empty());
  fs::copy(recording.path, copy.path, fs::copy_options::recursive);

  CongestionService replayed(WalServiceConfig(copy.path, 4));
  const WalRecoverStats stats = replayed.RecoverFromWal();
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_TRUE(stats.clean_shutdown);
  EXPECT_EQ(stats.samples, stream.size());
  EXPECT_EQ(replayed.VerdictLogText(), live_log);
  replayed.Stop();
}

// A segment written by hand (the WAL is only as trusted as the disk): a
// sample at t = INT64_MAX - 1 is rejected at admission as it would be live,
// and a day-close marker out there fails recovery instead of walking
// ~1e14 days. Either way recovery returns promptly with no verdicts.
TEST(WalRecovery, OutOfBoundsTimestampsRecoverPromptly) {
  const Sample hostile = {std::numeric_limits<TimeSec>::max() - 1, 1, 1,
                          SampleKind::kFarRtt, 1.0f};
  for (const bool with_marker : {false, true}) {
    WalDir dir("oob");
    fs::create_directories(dir.path);
    {
      std::ofstream out(dir.path + "/wal-000001.seg", std::ios::binary);
      out << "MANICWAL1\n" << EncodeSubmitBatch({&hostile, 1});
      if (with_marker) out << EncodeFlushAck(stats::DayOf(hostile.t));
    }
    CongestionService service(WalServiceConfig(dir.path));
    const WalRecoverStats stats = service.RecoverFromWal();
    EXPECT_EQ(stats.ok, !with_marker) << stats.error;
    EXPECT_EQ(stats.samples, 1u);
    EXPECT_EQ(service.Stats().samples_rejected, 1u);
    EXPECT_EQ(service.Stats().verdicts, 0u);
    EXPECT_EQ(service.LastClosedDay(), kNoDayClosed);
    service.Stop();
  }
}

// PollClock can close days before any sample arrives; recovery replays that
// first marker by seeding the close sequence the same way, so the recovered
// service matches the live one.
TEST(ServiceWal, ClockDrivenFirstCloseRecovers) {
  WalDir dir("clock_first");
  runtime::ManualClock clock(2 * stats::kSecPerDay + 7);
  ServiceConfig config = WalServiceConfig(dir.path);
  config.clock = &clock;
  std::string want;
  WatermarkInfo want_mark;
  {
    CongestionService live(config);
    ASSERT_TRUE(live.RecoverFromWal().ok);
    live.PollClock();  // seeds the sequence: day 1 counts as closed
    clock.Advance(2 * stats::kSecPerDay);
    live.PollClock();  // closes days 2 and 3: two logged markers
    std::vector<Sample> stream = DayMajorStream(9, 2);
    std::erase_if(stream, [](const Sample& s) {
      return s.t < 4 * stats::kSecPerDay;
    });
    clock.Advance(6 * stats::kSecPerDay);
    ASSERT_EQ(live.SubmitBatch(stream).accepted, stream.size());
    want = live.VerdictLogText();
    want_mark = live.Watermark();
    live.Stop();  // no CloseWalClean: a crash
  }
  CongestionService recovered(config);
  const WalRecoverStats stats = recovered.RecoverFromWal();
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(recovered.Watermark(), want_mark);
  EXPECT_EQ(recovered.VerdictLogText(), want);
  recovered.Stop();
}

// The first sample can land days past a clock-seeded start: live logs the
// seed's marker, the batch, then markers for the days in between. Replay
// re-seeds from the first marker and closes the days in between as live
// did, so the recovered service matches the live one.
TEST(ServiceWal, SampleAfterClockSeededCloseRecovers) {
  WalDir dir("clock_seed_sample");
  runtime::ManualClock clock(2 * stats::kSecPerDay + 7);
  ServiceConfig config = WalServiceConfig(dir.path);
  config.clock = &clock;
  std::string want;
  WatermarkInfo want_mark;
  {
    CongestionService live(config);
    ASSERT_TRUE(live.RecoverFromWal().ok);
    live.PollClock();  // seeds the sequence: day 1 counts as closed
    std::vector<Sample> stream = DayMajorStream(9, 2);
    std::erase_if(stream, [](const Sample& s) {
      return s.t < 4 * stats::kSecPerDay;
    });
    clock.Advance(8 * stats::kSecPerDay);
    // Logs the first day-4 samples, then markers 2 and 3, and so on.
    ASSERT_EQ(live.SubmitBatch(stream).accepted, stream.size());
    ASSERT_EQ(live.LastClosedDay(), 7);
    want = live.VerdictLogText();
    want_mark = live.Watermark();
    live.Stop();  // no CloseWalClean: a crash
  }
  CongestionService recovered(config);
  const WalRecoverStats stats = recovered.RecoverFromWal();
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.closes, 7u);  // the seed's marker, then days 2-7
  EXPECT_EQ(recovered.Watermark(), want_mark);
  EXPECT_EQ(recovered.VerdictLogText(), want);
  recovered.Stop();
}

// A clock seed on a real-epoch day is durable: a sample older than the
// seed is late live and again on replay, and the recovered watermark is
// the live one, seed included.
TEST(ServiceWal, ClockSeedIsLoggedAndReplayed) {
  WalDir dir("clock_seed_epoch");
  constexpr std::int64_t kToday = 20'000;  // 2024-10-04
  runtime::ManualClock clock(stats::StartOfDay(kToday) + 3'600);
  ServiceConfig config = WalServiceConfig(dir.path);
  config.clock = &clock;
  const Sample old_sample = {stats::StartOfDay(kToday - 2) + 60, 1, 1,
                             SampleKind::kFarRtt, 5.0f};
  const Sample today_sample = {clock.NowSec(), 1, 1, SampleKind::kFarRtt,
                               5.0f};
  WatermarkInfo want_mark;
  {
    CongestionService live(config);
    ASSERT_TRUE(live.RecoverFromWal().ok);
    live.PollClock();
    EXPECT_EQ(live.Submit(old_sample), SubmitOutcome::kLate);
    EXPECT_EQ(live.Submit(today_sample), SubmitOutcome::kAccepted);
    want_mark = live.Watermark();
    EXPECT_EQ(want_mark.last_closed_day, kToday - 1);
    EXPECT_EQ(want_mark.watermark_t, today_sample.t);
    live.Stop();  // no CloseWalClean: a crash
  }
  CongestionService recovered(config);
  const WalRecoverStats stats = recovered.RecoverFromWal();
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.closes, 1u);
  EXPECT_EQ(recovered.Stats().samples_late, 1u);
  EXPECT_EQ(recovered.Stats().samples, 1u);
  EXPECT_EQ(recovered.Watermark(), want_mark);
  recovered.Stop();
}

// -------------------------------------------------------------- fault hook

TEST(ScriptedIoFaults, IsDeterministicAndSeedSensitive) {
  runtime::ScriptedIoFaults::Config config;
  config.seed = 42;
  config.short_write_prob = 0.3;
  config.eintr_prob = 0.2;
  const runtime::ScriptedIoFaults a(config);
  const runtime::ScriptedIoFaults b(config);
  config.seed = 43;
  const runtime::ScriptedIoFaults c(config);
  bool any_fault = false;
  bool any_divergence = false;
  for (std::uint64_t op = 0; op < 200; ++op) {
    const auto fa = a.WriteAt(op, 100);
    const auto fb = b.WriteAt(op, 100);
    EXPECT_EQ(static_cast<int>(fa.kind), static_cast<int>(fb.kind));
    EXPECT_EQ(fa.short_len, fb.short_len);
    if (fa.kind != runtime::IoFaultHook::WriteFault::Kind::kPass) {
      any_fault = true;
      if (fa.kind == runtime::IoFaultHook::WriteFault::Kind::kShort) {
        EXPECT_GE(fa.short_len, 1u);
        EXPECT_LT(fa.short_len, 100u);
      }
    }
    if (static_cast<int>(fa.kind) != static_cast<int>(c.WriteAt(op, 100).kind)) {
      any_divergence = true;
    }
  }
  EXPECT_TRUE(any_fault);
  EXPECT_TRUE(any_divergence);
  EXPECT_TRUE(a.FsyncOkAt(0));
  EXPECT_EQ(a.CrashBytesAt(0), -1);
}

TEST(ScriptedIoFaults, FsyncFailureSurfacesAsIoError) {
  WalDir dir("fsync_fail");
  runtime::ScriptedIoFaults::Config fault_config;
  fault_config.fail_fsync_at = 0;
  runtime::ScriptedIoFaults faults(fault_config);
  WalConfig config;
  config.dir = dir.path;
  config.fsync = WalFsync::kEveryAppend;
  config.fault_hook = &faults;
  WalWriter writer;
  ASSERT_EQ(writer.Open(config), WalStatus::kOk);
  EXPECT_EQ(writer.AppendSamples(SmallBatch(1, 2)), WalStatus::kIoError);
}

// ------------------------------------------------------------------ codec

TEST(WalCodec, BufferReusingEncodersMatchTheAllocatingOnes) {
  const std::vector<Sample> batch = SmallBatch(2, 5);
  std::string to;
  EncodeSubmitBatchTo(batch, &to);
  EXPECT_EQ(to, EncodeSubmitBatch(batch));
  to.clear();
  EncodeFlushAckTo(1234, &to);
  EXPECT_EQ(to, EncodeFlushAck(1234));
  // Appending, not overwriting: the WAL reuses one buffer.
  std::string twice = to;
  EncodeFlushAckTo(1234, &twice);
  EXPECT_EQ(twice.size(), 2 * to.size());
}

TEST(WalCodec, WatermarkRoundTripsAndRejectsJunk) {
  WatermarkInfo info;
  info.samples_consumed = 987654321;
  info.watermark_t = 123456789;
  info.last_closed_day = -42;
  info.degraded = true;
  info.saw_sample = true;
  const std::string frame = EncodeWatermark(info);
  FrameAssembler assembler;
  assembler.Feed(frame);
  MsgType type;
  std::string payload;
  ASSERT_TRUE(assembler.Next(&type, &payload));
  ASSERT_EQ(type, MsgType::kWatermark);
  WatermarkInfo decoded;
  ASSERT_TRUE(DecodeWatermark(payload, &decoded));
  EXPECT_EQ(decoded, info);
  // Short payloads and reserved flag bits are malformations.
  EXPECT_FALSE(DecodeWatermark(payload.substr(0, payload.size() - 1),
                               &decoded));
  std::string bad = payload;
  bad.back() = char(0x7F);
  EXPECT_FALSE(DecodeWatermark(bad, &decoded));
}

}  // namespace
}  // namespace manic::serve
