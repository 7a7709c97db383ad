// In-memory span recorder for the traced run (--trace 1).
//
// A span is one timed call into a layer of the program, named
// "<layer>.<function>" (for example "codec.EncodeSubmitBatch"). Spans nest:
// a span opened while another is open records it as its parent, so a
// layer's self time is its spans' time minus the time of their children.
// Spans that belong to one operation (one submit, one query, one study run)
// carry the same operation id. Benchmark-own spans (a whole pass, a set-up)
// use names without a dot and count for no layer; the time inside them that
// no layer span covers is the "unattributed" share.
//
// Calls too short and too many to record one by one (per-row inference in
// the study export callback) are folded: one record per (name, parent)
// holding their summed time and call count.
//
// Nothing here is thread-safe: spans are opened only on the benchmark's
// driving thread. Spans are kept in memory and written out once, at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Operation kinds. Each kind numbers its own operations; OpId puts the kind
// in the top byte, so ids of different kinds never collide.
enum class Op : std::uint64_t {
  kSetup = 1,    // one daemon set-up: start, recovery, listen, connect
  kSubmit,       // one wire Submit of a (day, link) batch
  kFlush,        // one wire Flush
  kQuery,        // one wire query
  kLayerSubmit,  // one batch driven through one layer on its own
  kLayerClose,   // one day close driven through one layer on its own
  kLayerQuery,   // one query driven through one layer on its own
  kStudy,        // one study iteration
  kDiscover,     // one VP's link discovery
  kExport,       // one study stream export
  kReadWal,      // one read-back of a WAL
};

// `index` must fit in 56 bits. Callers that repeat an operation in several
// passes or drives put the pass or drive number in the bits above 32.
inline std::uint64_t OpId(Op kind, std::uint64_t index) {
  return static_cast<std::uint64_t>(kind) << 56 | index;
}

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  // index into spans(), -1 for a root
    std::uint64_t op = 0;      // operation id shared by one operation's spans
    std::uint64_t calls = 1;   // calls of the named function inside the span
  };
  struct Folded {
    const char* name = "";
    std::int32_t parent = -1;
    std::int64_t total_ns = 0;
    std::uint64_t calls = 0;
  };

  std::int32_t Open(const char* name, std::uint64_t op, std::uint64_t calls);
  void Close(std::int32_t index);
  // Adds `ns` of folded time under the innermost open span.
  void Fold(const char* name, std::int64_t ns, std::uint64_t calls);

  const std::vector<Span>& spans() const { return spans_; }

  // Summed duration (s) and call count of every span and folded record with
  // this exact name.
  double Seconds(const std::string& name) const;
  std::uint64_t Calls(const std::string& name) const;
  // Duration (s) of each span with this exact name, in recording order.
  std::vector<double> Durations(const std::string& name) const;
  // Self time (s) per layer: span time minus child time, summed by the
  // name's prefix before the first dot. Dot-less (benchmark-own) spans are
  // left out.
  std::map<std::string, double> SelfSecondsByLayer() const;
  // Share of the time inside spans named `root` that no child span covers.
  double UnattributedFrac(const std::string& root) const;

  // One JSON object per line: spans first, then folded records.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<std::int64_t> ChildNs() const;

  std::vector<Span> spans_;
  std::vector<Folded> folded_;
  std::vector<std::int32_t> open_;  // stack of open span indices
};

// RAII span that does nothing when the tracer is null (the untraced run).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t op = 0,
        std::uint64_t calls = 1)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Open(name, op, calls) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->Close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

}  // namespace perfbench
