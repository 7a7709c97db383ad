// The one durable append log, under the serve WAL and the checkpoint log:
//
//   [magic] [u32 LE length][length bytes] [u32 LE length][length bytes] ...
//
// Whole records go through one fault-aware write loop (runtime::IoFaultHook),
// so a kill tears at most the final record or a half-stamped magic. The
// reader chops such a torn tail off the file; anything else (a wrong magic,
// a zero or over-limit length, a rejected record) is reported, not repaired.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "runtime/io_fault.h"

namespace manic::runtime {

// The fixed prefix of one on-disk record: a little-endian u32 count of the
// record bytes that follow. Every WAL segment and checkpoint file is framed
// by it, so widening it would orphan all of them; the pins below force a
// deliberate format bump instead.
struct FramedRecordHeader {
  std::uint32_t length = 0;

  static constexpr std::size_t kEncodedSize = 4;
};
static_assert([] {
  [[maybe_unused]] auto [length] = FramedRecordHeader{};
  return true;
}());
static_assert(sizeof(FramedRecordHeader) == FramedRecordHeader::kEncodedSize &&
                  offsetof(FramedRecordHeader, length) == 0 &&
                  sizeof(FramedRecordHeader::length) ==
                      FramedRecordHeader::kEncodedSize,
              "runtime::FramedRecordHeader drifted from its 4-byte encoding");

// Appends the header of a `length`-byte record to `out`.
void PutRecordHeader(std::uint32_t length, std::string* out);

// Outcome of an open/append/sync. kNoSpace (ENOSPC) is the one a caller
// can degrade around; kIoError is every other failure.
enum class [[nodiscard]] LogStatus : std::uint8_t {
  kOk,
  kNoSpace,
  kIoError,
};

// Appender. Not thread-safe: one owner thread appends.
class FramedLogWriter {
 public:
  // `magic` must outlive the writer (a string literal in practice).
  explicit FramedLogWriter(std::string_view magic) noexcept : magic_(magic) {}
  ~FramedLogWriter() { Close(); }

  FramedLogWriter(const FramedLogWriter&) = delete;
  FramedLogWriter& operator=(const FramedLogWriter&) = delete;

  // Create or append. A file shorter than the magic is (re-)stamped; one
  // with the magic is appended to as it stands (run the reader first, so a
  // torn tail is gone); any other file is foreign: untouched, kIoError. The
  // fault-hook counters carry across re-opens, so rotating files does not
  // shift a seeded fault schedule.
  LogStatus Open(const std::string& path,
                 const IoFaultHook* fault_hook = nullptr);

  // Appends one whole record (header included). A failure closes the
  // writer: torn bytes may now end the file, so nothing more is appended
  // until the next Open.
  LogStatus Append(std::string_view record);

  LogStatus Sync();  // fdatasync
  void Close();

  bool is_open() const noexcept { return fd_ >= 0; }
  // Records appended over the writer's lifetime: the crash seam's index.
  std::uint64_t records() const noexcept { return records_; }

 private:
  LogStatus WriteAll(const char* data, std::size_t len);

  std::string_view magic_;
  const IoFaultHook* fault_hook_ = nullptr;
  int fd_ = -1;
  std::uint64_t records_ = 0;    // whole-record append counter (crash seam)
  std::uint64_t write_ops_ = 0;  // write() attempt counter (fault seam)
  std::uint64_t fsync_ops_ = 0;  // fsync() attempt counter (fault seam)
};

enum class FramedLogState : std::uint8_t {
  kOk,       // every complete record delivered; a torn tail may remain
  kForeign,  // the header is not this log's magic; nothing delivered
  kDamaged,  // bad length, a rejected record, or an unusable file
};

struct [[nodiscard]] FramedLogScan {
  FramedLogState state = FramedLogState::kOk;
  // Offset just past the last complete record; 0 = no whole magic.
  std::uint64_t end = 0;
  std::uint64_t torn_bytes = 0;  // bytes after `end`: the torn tail
};

// Reads `path` once and hands each complete record's body to `on_record`
// in order, in place; a false return stops the walk as kDamaged, as does a
// length of zero or above `max_length`. `chop_torn_tail` cuts the torn tail
// off the file. A missing file reads as an empty log.
FramedLogScan ScanFramedLog(
    const std::string& path, std::string_view magic, std::uint32_t max_length,
    bool chop_torn_tail,
    const std::function<bool(std::string_view)>& on_record);

}  // namespace manic::runtime
