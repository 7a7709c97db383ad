#include "runtime/framed_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace manic::runtime {
namespace {

LogStatus ErrnoStatus() {
  return errno == ENOSPC ? LogStatus::kNoSpace : LogStatus::kIoError;
}

std::uint32_t RecordLength(const char* p) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < FramedRecordHeader::kEncodedSize; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

}  // namespace

void PutRecordHeader(std::uint32_t length, std::string* out) {
  for (std::size_t i = 0; i < FramedRecordHeader::kEncodedSize; ++i) {
    out->push_back(static_cast<char>((length >> (8 * i)) & 0xFF));
  }
}

LogStatus FramedLogWriter::Open(const std::string& path,
                                const IoFaultHook* fault_hook) {
  Close();
  fault_hook_ = fault_hook;
  fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_APPEND, 0644);
  if (fd_ < 0) return ErrnoStatus();
  // Foreign unless the magic is there: never append after someone else's
  // bytes. Shorter than the magic: new, or killed while stamping it.
  std::string head(magic_.size(), '\0');
  const ssize_t n = ::pread(fd_, head.data(), head.size(), 0);
  LogStatus status = LogStatus::kIoError;
  if (n == static_cast<ssize_t>(head.size())) {
    if (head == magic_) status = LogStatus::kOk;
  } else if (n == 0 || (n > 0 && ::ftruncate(fd_, 0) == 0)) {
    status = WriteAll(magic_.data(), magic_.size());
  }
  if (status != LogStatus::kOk) Close();
  return status;
}

// The append fast path: runs once per WAL record (every consumed submit
// batch and day close), so it is fenced by the linter's hot-path contract —
// the only I/O here is the durability write itself.
// manic-lint: hot-path(begin)
LogStatus FramedLogWriter::WriteAll(const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    std::size_t attempt = len - off;
    if (fault_hook_ != nullptr) {
      using Kind = IoFaultHook::WriteFault::Kind;
      const auto fault = fault_hook_->WriteAt(write_ops_++, attempt);
      switch (fault.kind) {
        case Kind::kPass:
          break;
        case Kind::kEintr:
          continue;  // the syscall "failed" with EINTR: retry, no bytes moved
        case Kind::kShort:
          attempt = std::max<std::size_t>(1, std::min(fault.short_len, attempt));
          break;
        case Kind::kEnospc:
          return LogStatus::kNoSpace;
      }
    }
    // The durability write itself — the one syscall this path exists for.
    // manic-lint: allow(hot-path)
    const ssize_t n = ::write(fd_, data + off, attempt);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus();
    }
    off += static_cast<std::size_t>(n);
  }
  return LogStatus::kOk;
}

LogStatus FramedLogWriter::Append(std::string_view record) {
  if (fd_ < 0) return LogStatus::kIoError;
  constexpr std::size_t kHeader = FramedRecordHeader::kEncodedSize;
  if (record.size() <= kHeader ||
      RecordLength(record.data()) != record.size() - kHeader) {
    return LogStatus::kIoError;  // not one whole record: would damage the log
  }
  if (fault_hook_ != nullptr) {
    const std::int64_t crash = fault_hook_->CrashBytesAt(records_);
    if (crash >= 0) {
      // Kill point: emit the prescribed torn prefix, then die where a real
      // crash would — the reader sees a record cut mid-header or mid-body.
      const std::size_t torn =
          std::min(record.size(), static_cast<std::size_t>(crash));
      (void)WriteAll(record.data(), torn);
      std::_Exit(42);
    }
  }
  const LogStatus written = WriteAll(record.data(), record.size());
  if (written == LogStatus::kOk) {
    ++records_;
  } else {
    Close();
  }
  return written;
}
// manic-lint: hot-path(end)

LogStatus FramedLogWriter::Sync() {
  if (fd_ < 0) return LogStatus::kIoError;
  if (fault_hook_ != nullptr && !fault_hook_->FsyncOkAt(fsync_ops_++)) {
    return LogStatus::kIoError;
  }
  // fdatasync, not fsync: recovery needs the appended bytes and the file
  // size (both covered), not the mtime — whose journal commit is most of
  // an ext4 fsync's cost.
  if (::fdatasync(fd_) != 0) return ErrnoStatus();
  return LogStatus::kOk;
}

void FramedLogWriter::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

FramedLogScan ScanFramedLog(
    const std::string& path, std::string_view magic, std::uint32_t max_length,
    bool chop_torn_tail,
    const std::function<bool(std::string_view)>& on_record) {
  FramedLogScan scan;
  std::error_code ec;
  std::string data;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (in) {
    data.resize(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(data.data(), static_cast<std::streamsize>(data.size()));
  }
  if (!in) {
    // Absent reads as an empty log; present but unreadable is unusable.
    if (std::filesystem::exists(path, ec)) {
      scan.state = FramedLogState::kDamaged;
    }
    return scan;
  }
  std::size_t pos = 0;  // shorter than the magic: all of it is torn tail
  if (data.size() >= magic.size()) {
    if (data.compare(0, magic.size(), magic) != 0) {
      scan.state = FramedLogState::kForeign;
      return scan;
    }
    pos = magic.size();
  }
  constexpr std::size_t kHeader = FramedRecordHeader::kEncodedSize;
  while (pos != 0 && data.size() - pos >= kHeader) {
    const std::uint32_t length = RecordLength(data.data() + pos);
    if (length == 0 || length > max_length) {
      scan.state = FramedLogState::kDamaged;
      break;
    }
    if (data.size() - pos - kHeader < length) break;  // torn final record
    if (!on_record(std::string_view(data).substr(pos + kHeader, length))) {
      scan.state = FramedLogState::kDamaged;
      break;
    }
    pos += kHeader + length;
  }
  scan.end = pos;
  scan.torn_bytes = data.size() - pos;
  if (scan.state == FramedLogState::kOk && chop_torn_tail &&
      scan.torn_bytes != 0) {
    // Chop it off the file, not just the parse: an append after half a
    // record would hide every later record from the next read.
    std::filesystem::resize_file(path, pos, ec);
    if (ec) scan.state = FramedLogState::kDamaged;
  }
  return scan;
}

}  // namespace manic::runtime
