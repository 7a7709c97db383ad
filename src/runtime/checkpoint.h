// Append-only shard checkpoint log. Every completed shard's result is
// serialized as one [key, blob] record of a runtime::FramedLog; a study
// killed mid-write leaves at most one torn trailing record, which loading
// chops off the file. On resume, shards whose key is already present
// restore their saved blob and skip the work; because merges replay in the
// same canonical key order either way, a resumed study's output is
// byte-identical to an uninterrupted run.
//
// BlobWriter/BlobReader serialize shard state exactly: integers little-
// endian, doubles by bit pattern (std::bit_cast), so a restored double is
// the same 64 bits that were saved, not a round-tripped decimal.
#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "runtime/framed_log.h"

namespace manic::runtime {

class BlobWriter {
 public:
  void PutU64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }
  void PutI64(std::int64_t v) { PutU64(static_cast<std::uint64_t>(v)); }
  void PutDouble(double v) { PutU64(std::bit_cast<std::uint64_t>(v)); }
  void PutBytes(std::string_view bytes) {
    PutU64(bytes.size());
    buf_.append(bytes);
  }

  const std::string& str() const noexcept { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class BlobReader {
 public:
  explicit BlobReader(std::string_view data) noexcept : data_(data) {}

  bool GetU64(std::uint64_t* out) noexcept {
    if (pos_ + 8 > data_.size()) return false;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *out = v;
    return true;
  }
  bool GetI64(std::int64_t* out) noexcept {
    std::uint64_t v = 0;
    if (!GetU64(&v)) return false;
    *out = static_cast<std::int64_t>(v);
    return true;
  }
  bool GetDouble(double* out) noexcept {
    std::uint64_t v = 0;
    if (!GetU64(&v)) return false;
    *out = std::bit_cast<double>(v);
    return true;
  }
  bool GetBytes(std::string* out) {
    std::uint64_t len = 0;
    if (!GetU64(&len) || pos_ + len > data_.size()) return false;
    out->assign(data_.substr(pos_, len));
    pos_ += len;
    return true;
  }

  bool AtEnd() const noexcept { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

class CheckpointLog {
 public:
  // Opens (or creates) the log at `path` and loads every complete record;
  // a torn trailing record (a kill mid-write) is chopped off. A later
  // record for a key shadows an earlier one. A foreign or damaged file (an
  // older format included) is never appended to. `fault_hook`: test seam.
  explicit CheckpointLog(const std::string& path,
                         const IoFaultHook* fault_hook = nullptr);

  // Appends one record (written through, not fsynced). Not kOk: neither it
  // nor any later record is durable; a resume recomputes those shards.
  LogStatus Record(std::uint64_t key, std::string_view blob);
  // False once the log refuses appends (a bad file or a failed Record).
  bool writable() const noexcept { return writer_.is_open(); }

  // Saved blob for a shard key, if one survived loading.
  std::optional<std::string> Lookup(std::uint64_t key) const;

  std::size_t size() const noexcept { return records_.size(); }

 private:
  FramedLogWriter writer_;
  std::map<std::uint64_t, std::string> records_;
};

}  // namespace manic::runtime
