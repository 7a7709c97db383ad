#include "runtime/checkpoint.h"

namespace manic::runtime {

namespace {

// Format 2: framed [key u64][blob] records. A format-1 file (MANICCKPT1,
// [key u64][len u64][blob]) reads as foreign: a study resuming from one
// just recomputes.
constexpr char kMagic[] = "MANICCKPT2\n";
constexpr std::size_t kKeyBytes = 8;
// Largest record (key + blob); a longer length prefix is damage.
constexpr std::uint32_t kMaxRecord = 1u << 30;

}  // namespace

CheckpointLog::CheckpointLog(const std::string& path,
                             const IoFaultHook* fault_hook)
    : writer_(kMagic) {
  const FramedLogScan scan = ScanFramedLog(
      path, kMagic, kMaxRecord, /*chop_torn_tail=*/true,
      [this](std::string_view record) {
        BlobReader reader(record);
        std::uint64_t key = 0;
        if (!reader.GetU64(&key)) return false;
        records_.insert_or_assign(key,
                                  std::string(record.substr(kKeyBytes)));
        return true;
      });
  if (scan.state != FramedLogState::kOk) return;  // Record() reports it
  // A failed open leaves the writer closed, which Record() reports too.
  (void)writer_.Open(path, fault_hook);
}

LogStatus CheckpointLog::Record(std::uint64_t key, std::string_view blob) {
  if (blob.size() > kMaxRecord - kKeyBytes) return LogStatus::kIoError;
  std::string record;
  PutRecordHeader(static_cast<std::uint32_t>(kKeyBytes + blob.size()),
                  &record);
  for (std::size_t i = 0; i < kKeyBytes; ++i) {
    record.push_back(static_cast<char>((key >> (8 * i)) & 0xFF));
  }
  record.append(blob);
  const LogStatus status = writer_.Append(record);
  if (status == LogStatus::kOk) {
    records_.insert_or_assign(key, std::string(blob));
  }
  return status;
}

std::optional<std::string> CheckpointLog::Lookup(std::uint64_t key) const {
  const auto it = records_.find(key);
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

}  // namespace manic::runtime
