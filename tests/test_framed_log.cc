// Robustness tests for runtime::FramedLog, the primitive under the serve WAL
// and the shard checkpoint log: truncation at every byte boundary of the
// last record followed by a re-open and append, recovery idempotence (the
// double-crash case), sticky failure after ENOSPC, a storm of short writes
// and EINTR, damage that is not a torn tail (zero, over-limit, foreign), and
// the crash seam's record index surviving a re-open.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/checkpoint.h"
#include "runtime/framed_log.h"
#include "runtime/io_fault.h"

namespace manic::runtime {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kMagic = "MANICTEST\n";
constexpr std::uint32_t kMaxLength = 1u << 16;

// A scratch log file, removed on destruction.
struct LogFile {
  explicit LogFile(const char* tag)
      : path(::testing::TempDir() + "/manic_framed_" + tag + ".log") {
    fs::remove(path);
  }
  ~LogFile() { fs::remove(path); }
  std::string path;
};

std::string Framed(std::string_view body) {
  std::string record;
  PutRecordHeader(static_cast<std::uint32_t>(body.size()), &record);
  record.append(body);
  return record;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Scans `path` and collects every delivered record body.
FramedLogScan Scan(const std::string& path, std::vector<std::string>* bodies,
                   bool chop = true) {
  bodies->clear();
  return ScanFramedLog(path, kMagic, kMaxLength, chop,
                       [bodies](std::string_view body) {
                         bodies->emplace_back(body);
                         return true;
                       });
}

// The body of record `i`: sizes vary so cuts land mid-header and mid-body.
std::string Body(int i) { return std::string(3 + 7 * i, char('a' + i)); }

TEST(FramedLog, RoundTripsRecordsInOrder) {
  LogFile log("roundtrip");
  {
    FramedLogWriter writer(kMagic);
    ASSERT_EQ(writer.Open(log.path), LogStatus::kOk);
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(writer.Append(Framed(Body(i))), LogStatus::kOk);
    }
    EXPECT_EQ(writer.records(), 4u);
  }
  std::vector<std::string> bodies;
  const FramedLogScan scan = Scan(log.path, &bodies);
  EXPECT_EQ(scan.state, FramedLogState::kOk);
  EXPECT_EQ(scan.torn_bytes, 0u);
  EXPECT_EQ(scan.end, fs::file_size(log.path));
  EXPECT_EQ(bodies, (std::vector<std::string>{Body(0), Body(1), Body(2),
                                              Body(3)}));
}

// Cut the log at EVERY byte boundary inside the final record — through the
// 4-byte header and through the body — and require the reader to deliver
// exactly the intact prefix, chop the torn tail off the file, and leave it
// appendable: a re-open and append lands on the record boundary.
TEST(FramedLog, TruncationAtEveryByteOfLastRecord) {
  LogFile source("sweep_src");
  {
    FramedLogWriter writer(kMagic);
    ASSERT_EQ(writer.Open(source.path), LogStatus::kOk);
    ASSERT_EQ(writer.Append(Framed(Body(1))), LogStatus::kOk);
    ASSERT_EQ(writer.Append(Framed(Body(2))), LogStatus::kOk);
  }
  const std::string full = FileBytes(source.path);
  const std::size_t intact_end = kMagic.size() + Framed(Body(1)).size();
  ASSERT_LT(intact_end, full.size());

  LogFile log("sweep_cut");
  std::vector<std::string> bodies;
  for (std::size_t cut = intact_end; cut < full.size(); ++cut) {
    WriteBytes(log.path, std::string_view(full).substr(0, cut));
    const FramedLogScan scan = Scan(log.path, &bodies);
    ASSERT_EQ(scan.state, FramedLogState::kOk) << "cut at byte " << cut;
    EXPECT_EQ(bodies, (std::vector<std::string>{Body(1)})) << "cut " << cut;
    EXPECT_EQ(scan.torn_bytes, cut - intact_end) << "cut at byte " << cut;
    EXPECT_EQ(scan.end, intact_end);
    EXPECT_EQ(fs::file_size(log.path), intact_end) << "cut at byte " << cut;

    FramedLogWriter writer(kMagic);
    ASSERT_EQ(writer.Open(log.path), LogStatus::kOk);
    ASSERT_EQ(writer.Append(Framed(Body(3))), LogStatus::kOk);
    writer.Close();
    ASSERT_EQ(Scan(log.path, &bodies).state, FramedLogState::kOk);
    EXPECT_EQ(bodies, (std::vector<std::string>{Body(1), Body(3)}))
        << "cut at byte " << cut;
  }
}

// The same sweep through the checkpoint log's own API: every cut loses at
// most the torn record, and re-recording it leaves a log a second resume
// reads in full.
TEST(FramedLog, CheckpointTruncationAtEveryByteOfLastRecord) {
  LogFile source("ckpt_src");
  {
    CheckpointLog checkpoint(source.path);
    ASSERT_EQ(checkpoint.Record(1, "one"), LogStatus::kOk);
    ASSERT_EQ(checkpoint.Record(2, "two-two"), LogStatus::kOk);
  }
  const std::string full = FileBytes(source.path);
  // magic + [length][key]["one"]
  const std::size_t intact_end = full.size() - (4 + 8 + 7);
  LogFile log("ckpt_cut");
  for (std::size_t cut = intact_end; cut < full.size(); ++cut) {
    WriteBytes(log.path, std::string_view(full).substr(0, cut));
    {
      CheckpointLog checkpoint(log.path);
      EXPECT_EQ(checkpoint.size(), 1u) << "cut at byte " << cut;
      EXPECT_FALSE(checkpoint.Lookup(2).has_value())
          << "cut at byte " << cut;
      ASSERT_EQ(checkpoint.Record(2, "two-two"), LogStatus::kOk);
    }
    const CheckpointLog resumed(log.path);
    EXPECT_EQ(resumed.Lookup(1), "one") << "cut at byte " << cut;
    EXPECT_EQ(resumed.Lookup(2), "two-two") << "cut at byte " << cut;
  }
}

// A crash during recovery must lose nothing: the reader's only write is the
// torn-tail truncation, after which a second read delivers the identical
// records — the double-crash scenario.
TEST(FramedLog, RecoveryIsIdempotentAfterTornTail) {
  LogFile log("double_crash");
  {
    FramedLogWriter writer(kMagic);
    ASSERT_EQ(writer.Open(log.path), LogStatus::kOk);
    ASSERT_EQ(writer.Append(Framed(Body(4))), LogStatus::kOk);
    ASSERT_EQ(writer.Append(Framed(Body(5))), LogStatus::kOk);
  }
  {
    std::ofstream out(log.path, std::ios::binary | std::ios::app);
    out.write("\x40\x00\x00\x00\x03\x09\x00", 7);  // half a record
  }
  std::vector<std::string> first, second;
  const FramedLogScan a = Scan(log.path, &first);
  ASSERT_EQ(a.state, FramedLogState::kOk);
  EXPECT_EQ(a.torn_bytes, 7u);
  const FramedLogScan b = Scan(log.path, &second);
  ASSERT_EQ(b.state, FramedLogState::kOk);
  EXPECT_EQ(b.torn_bytes, 0u);  // nothing left to chop
  EXPECT_EQ(first, (std::vector<std::string>{Body(4), Body(5)}));
  EXPECT_EQ(second, first);
}

// A fault hook that tears one write short and then hits ENOSPC: the append
// fails with bytes of a half record already in the file.
class TearThenEnospc final : public IoFaultHook {
 public:
  explicit TearThenEnospc(std::uint64_t op) : op_(op) {}
  WriteFault WriteAt(std::uint64_t op, std::size_t /*len*/) const override {
    WriteFault fault;
    if (op == op_) {
      fault.kind = WriteFault::Kind::kShort;
      fault.short_len = 3;
    } else if (op > op_) {
      fault.kind = WriteFault::Kind::kEnospc;
    }
    return fault;
  }

 private:
  std::uint64_t op_ = 0;
};

// After a failed append nothing more is appended (it would land after torn
// bytes); a re-read sees only the complete records and chops the torn ones.
TEST(FramedLog, FailedAppendIsStickyAndReopenSeesOnlyCompleteRecords) {
  LogFile log("enospc");
  const TearThenEnospc faults(/*op=*/2);  // op 0 = magic, op 1 = record 0
  FramedLogWriter writer(kMagic);
  ASSERT_EQ(writer.Open(log.path, &faults), LogStatus::kOk);
  ASSERT_EQ(writer.Append(Framed(Body(1))), LogStatus::kOk);
  EXPECT_EQ(writer.Append(Framed(Body(2))), LogStatus::kNoSpace);
  const std::uintmax_t torn_size = fs::file_size(log.path);
  EXPECT_EQ(torn_size, kMagic.size() + Framed(Body(1)).size() + 3);
  EXPECT_FALSE(writer.is_open());
  EXPECT_EQ(writer.Append(Framed(Body(3))), LogStatus::kIoError);
  EXPECT_EQ(fs::file_size(log.path), torn_size);  // nothing after torn bytes
  EXPECT_EQ(writer.records(), 1u);
  writer.Close();

  std::vector<std::string> bodies;
  const FramedLogScan scan = Scan(log.path, &bodies);
  ASSERT_EQ(scan.state, FramedLogState::kOk);
  EXPECT_EQ(scan.torn_bytes, 3u);
  EXPECT_EQ(bodies, (std::vector<std::string>{Body(1)}));
  ASSERT_EQ(writer.Open(log.path), LogStatus::kOk);
  ASSERT_EQ(writer.Append(Framed(Body(3))), LogStatus::kOk);
  writer.Close();
  ASSERT_EQ(Scan(log.path, &bodies).state, FramedLogState::kOk);
  EXPECT_EQ(bodies, (std::vector<std::string>{Body(1), Body(3)}));
}

// Short writes and EINTR are absorbed by the write loop: the log reads back
// complete and bit-exact despite a hostile syscall layer.
TEST(ScriptedIoFaults, ShortWritesAndEintrDoNotCorruptTheLog) {
  LogFile log("hostile");
  ScriptedIoFaults::Config config;
  config.seed = 7;
  config.short_write_prob = 0.5;
  config.eintr_prob = 0.3;
  const ScriptedIoFaults faults(config);
  std::vector<std::string> want;
  {
    FramedLogWriter writer(kMagic);
    ASSERT_EQ(writer.Open(log.path, &faults), LogStatus::kOk);
    for (int i = 0; i < 20; ++i) {
      want.push_back(Body(i));
      ASSERT_EQ(writer.Append(Framed(want.back())), LogStatus::kOk);
    }
  }
  std::vector<std::string> bodies;
  const FramedLogScan scan = Scan(log.path, &bodies);
  ASSERT_EQ(scan.state, FramedLogState::kOk);
  EXPECT_EQ(scan.torn_bytes, 0u);
  EXPECT_EQ(bodies, want);
}

// A zero or over-limit length is damage, not a torn tail: reported, never
// chopped, and the records before it are still delivered.
TEST(FramedLog, ZeroOrOverLimitLengthIsDamaged) {
  LogFile log("over_limit");
  for (const std::uint32_t length : {0u, kMaxLength + 1}) {
    std::string bytes(kMagic);
    bytes += Framed(Body(0));
    PutRecordHeader(length, &bytes);
    bytes += "xyz";
    WriteBytes(log.path, bytes);
    std::vector<std::string> bodies;
    const FramedLogScan scan = Scan(log.path, &bodies);
    EXPECT_EQ(scan.state, FramedLogState::kDamaged) << "length " << length;
    EXPECT_EQ(bodies, (std::vector<std::string>{Body(0)}));
    EXPECT_EQ(FileBytes(log.path), bytes);  // untouched
  }
}

// A record the caller rejects stops the walk and reads as damage.
TEST(FramedLog, RejectedRecordIsDamaged) {
  LogFile log("rejected");
  {
    FramedLogWriter writer(kMagic);
    ASSERT_EQ(writer.Open(log.path), LogStatus::kOk);
    ASSERT_EQ(writer.Append(Framed(Body(0))), LogStatus::kOk);
    ASSERT_EQ(writer.Append(Framed(Body(1))), LogStatus::kOk);
  }
  int seen = 0;
  const FramedLogScan scan =
      ScanFramedLog(log.path, kMagic, kMaxLength, true,
                    [&seen](std::string_view) { return ++seen < 2; });
  EXPECT_EQ(scan.state, FramedLogState::kDamaged);
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(scan.end, kMagic.size() + Framed(Body(0)).size());
}

// Short files are torn magics: an absent or half-stamped file reads as an
// empty log and the writer re-stamps it. A wrong magic is foreign: the
// reader delivers nothing and the writer refuses to open it.
TEST(FramedLog, ShortFilesRestampForeignFilesRefuse) {
  LogFile log("magic");
  std::vector<std::string> bodies;
  for (const std::string_view stub :
       {std::string_view(""), kMagic.substr(0, 5)}) {
    WriteBytes(log.path, stub);
    const FramedLogScan scan = Scan(log.path, &bodies);
    EXPECT_EQ(scan.state, FramedLogState::kOk);
    EXPECT_EQ(scan.end, 0u);
    EXPECT_EQ(scan.torn_bytes, stub.size());
    FramedLogWriter writer(kMagic);
    ASSERT_EQ(writer.Open(log.path), LogStatus::kOk);
    ASSERT_EQ(writer.Append(Framed(Body(2))), LogStatus::kOk);
    writer.Close();
    EXPECT_EQ(FileBytes(log.path), std::string(kMagic) + Framed(Body(2)));
  }
  const std::string foreign = "MANICTEST0\nsomething else entirely";
  WriteBytes(log.path, foreign);
  EXPECT_EQ(Scan(log.path, &bodies).state, FramedLogState::kForeign);
  FramedLogWriter writer(kMagic);
  EXPECT_EQ(writer.Open(log.path), LogStatus::kIoError);
  EXPECT_FALSE(writer.is_open());
  EXPECT_EQ(writer.Append(Framed(Body(0))), LogStatus::kIoError);
  EXPECT_EQ(FileBytes(log.path), foreign);
}

TEST(FramedLog, AppendRefusesBytesThatAreNotOneRecord) {
  LogFile log("not_a_record");
  FramedLogWriter writer(kMagic);
  ASSERT_EQ(writer.Open(log.path), LogStatus::kOk);
  EXPECT_EQ(writer.Append(Framed("")), LogStatus::kIoError);
  EXPECT_EQ(writer.Append(Framed("abc") + "d"), LogStatus::kIoError);
  EXPECT_EQ(writer.Append(Framed("abc").substr(0, 5)), LogStatus::kIoError);
  EXPECT_EQ(fs::file_size(log.path), kMagic.size());
  EXPECT_EQ(writer.Append(Framed("abc")), LogStatus::kOk);  // not sticky
}

// The crash seam's record index counts across re-opens, so rotating files
// does not shift a seeded kill point: record 2 is the first record of the
// second file here, and the kill tears it after the prescribed bytes.
TEST(FramedLog, CrashSeamCountsRecordsAcrossReopens) {
  LogFile first("crash_a");
  LogFile second("crash_b");
  ScriptedIoFaults::Config config;
  config.crash_at_record = 2;
  config.crash_bytes = 6;
  const ScriptedIoFaults faults(config);
  EXPECT_EXIT(
      {
        FramedLogWriter writer(kMagic);
        if (writer.Open(first.path, &faults) != LogStatus::kOk ||
            writer.Append(Framed(Body(0))) != LogStatus::kOk ||
            writer.Append(Framed(Body(1))) != LogStatus::kOk ||
            writer.Open(second.path, &faults) != LogStatus::kOk) {
          std::_Exit(1);
        }
        (void)writer.Append(Framed(Body(2)));
        std::_Exit(2);  // not reached: the seam kills the process
      },
      ::testing::ExitedWithCode(42), "");
  std::vector<std::string> bodies;
  EXPECT_EQ(Scan(first.path, &bodies, false).torn_bytes, 0u);
  EXPECT_EQ(bodies, (std::vector<std::string>{Body(0), Body(1)}));
  const FramedLogScan scan = Scan(second.path, &bodies, false);
  EXPECT_TRUE(bodies.empty());
  EXPECT_EQ(scan.torn_bytes, 6u);
}

}  // namespace
}  // namespace manic::runtime
