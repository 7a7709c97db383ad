#include "serve/wal.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "serve/codec.h"

namespace manic::serve {
namespace {

constexpr char kMagic[] = "MANICWAL1\n";
constexpr char kCleanMarker[] = "wal-clean";

std::string SegmentName(std::uint32_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%06u.seg", index);
  return name;
}

std::string CleanMarkerPath(const std::string& dir) {
  return dir + "/" + kCleanMarker;
}

// Segment index parsed from a "wal-NNNNNN.seg" file name; 0 = not a segment.
std::uint32_t SegmentIndexOf(const std::string& name) {
  if (name.size() != 14 || name.compare(0, 4, "wal-") != 0 ||
      name.compare(10, 4, ".seg") != 0) {
    return 0;
  }
  std::uint32_t index = 0;
  for (std::size_t i = 4; i < 10; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return 0;
    index = index * 10 + static_cast<std::uint32_t>(c - '0');
  }
  return index;
}

// Ascending list of (index, path) for every segment under dir.
std::vector<std::pair<std::uint32_t, std::string>> ListSegments(
    const std::string& dir) {
  std::vector<std::pair<std::uint32_t, std::string>> segments;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::uint32_t index = SegmentIndexOf(entry.path().filename());
    if (index != 0) segments.emplace_back(index, entry.path().string());
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

}  // namespace

WalWriter::WalWriter() : log_(kMagic) {}

WalStatus WalWriter::Open(const WalConfig& config) {
  Abandon();
  config_ = config;
  if (config_.segment_bytes == 0) config_.segment_bytes = 1;
  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);
  if (ec) return WalStatus::kIoError;
  // Appending again: the log is live, the previous clean shutdown is over.
  std::filesystem::remove(CleanMarkerPath(config_.dir), ec);
  const auto segments = ListSegments(config_.dir);
  next_segment_ = segments.empty() ? 1 : segments.back().first + 1;
  return OpenSegment();
}

WalStatus WalWriter::OpenSegment() {
  const std::string path = config_.dir + "/" + SegmentName(next_segment_);
  ++next_segment_;
  ++segments_opened_;
  segment_written_ = 0;
  return log_.Open(path, config_.fault_hook);
}

// The WAL append fast path: runs once per consumed submit batch and per day
// close, so it is fenced by the linter's hot-path contract — one write() of
// the reused frame buffer per record, inside FramedLogWriter::Append.
// manic-lint: hot-path(begin)
WalStatus WalWriter::AppendFrame(bool day_close) {
  // A v1 frame is one framed record as it stands: [u32 length][type]...
  const WalStatus written = log_.Append(frame_buf_);
  if (written != WalStatus::kOk) return written;
  segment_written_ += frame_buf_.size();
  if (config_.fsync == WalFsync::kEveryAppend ||
      (day_close && config_.fsync == WalFsync::kDayClose)) {
    const WalStatus synced = log_.Sync();
    if (synced != WalStatus::kOk) return synced;
  }
  if (segment_written_ >= config_.segment_bytes) {
    // Seal the full segment (its bytes must outlive the rotation) and roll
    // to the next — a cold, once-per-64MiB branch.
    const WalStatus sealed = log_.Sync();
    if (sealed != WalStatus::kOk) return sealed;
    return OpenSegment();
  }
  return WalStatus::kOk;
}

WalStatus WalWriter::AppendSamples(std::span<const Sample> samples) {
  if (samples.empty()) return WalStatus::kOk;
  // frame_buf_ is reused append over append: amortized to zero allocation
  // once the high-water batch size has been seen.
  frame_buf_.clear();
  EncodeSubmitBatchTo(samples, &frame_buf_);
  return AppendFrame(false);
}

WalStatus WalWriter::AppendClose(std::int64_t day) {
  frame_buf_.clear();
  EncodeFlushAckTo(day, &frame_buf_);
  return AppendFrame(true);
}
// manic-lint: hot-path(end)

WalStatus WalWriter::CloseClean() {
  if (!log_.is_open()) return WalStatus::kIoError;
  const WalStatus synced = log_.Sync();
  if (synced != WalStatus::kOk) return synced;
  log_.Close();
  std::ofstream marker(CleanMarkerPath(config_.dir), std::ios::binary);
  marker << kMagic;
  marker.flush();
  return marker.good() ? WalStatus::kOk : WalStatus::kIoError;
}

WalRecoverStats ReadWal(
    const std::string& dir,
    const std::function<void(std::span<const Sample>)>& on_samples,
    const std::function<void(std::int64_t)>& on_close) {
  WalRecoverStats stats;
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) {
    stats.ok = true;  // nothing durable yet: a fresh service
    return stats;
  }
  stats.clean_shutdown = std::filesystem::exists(CleanMarkerPath(dir), ec);
  // Record bodies are [type][payload], decoded in place: no second copy.
  std::vector<Sample> batch;
  std::int64_t day = 0;
  std::string rejected = "corrupt framing";
  const auto on_record = [&](std::string_view record) {
    const auto type = static_cast<MsgType>(record[0]);
    const std::string_view payload = record.substr(1);
    if (type == MsgType::kSubmitBatch) {
      if (!DecodeSubmitBatch(payload, &batch)) {
        rejected = "malformed sample record";
        return false;
      }
      stats.samples += batch.size();
      on_samples(batch);
    } else if (type == MsgType::kFlushAck) {
      if (!DecodeFlushAck(payload, &day)) {
        rejected = "malformed day-close marker";
        return false;
      }
      ++stats.closes;
      on_close(day);
    } else {
      rejected = "foreign frame type";
      return false;
    }
    ++stats.records;
    return true;
  };
  const auto segments = ListSegments(dir);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    // Only the newest segment may end torn, so only its tail is chopped.
    const bool last = i + 1 == segments.size();
    const std::string& path = segments[i].second;
    const runtime::FramedLogScan scan = runtime::ScanFramedLog(
        path, kMagic, kMaxFramePayload + 1, last, on_record);
    if (scan.state == runtime::FramedLogState::kForeign) {
      stats.error = "bad magic in wal segment " + path;
      return stats;
    }
    if (scan.state == runtime::FramedLogState::kDamaged) {
      stats.error = rejected + " in " + path;
      return stats;
    }
    if (!last && (scan.end == 0 || scan.torn_bytes != 0)) {
      // A torn record or magic can only live at the very tail of the log:
      // anywhere else the files were damaged, not just interrupted.
      stats.error = "torn record inside non-final segment " + path;
      return stats;
    }
    stats.truncated_bytes += scan.torn_bytes;
    if (scan.end == 0) {
      // A crash while stamping the magic of a fresh segment: nothing was
      // ever durable here.
      std::filesystem::remove(path, ec);
      break;
    }
    ++stats.segments;
  }
  stats.ok = true;
  return stats;
}

}  // namespace manic::serve
