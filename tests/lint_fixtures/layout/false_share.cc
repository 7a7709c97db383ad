// Layout-pass fixture: false sharing. The test's concurrency spec binds
// `producer` to the Push methods and `consumer` to the Pop methods, so every
// struct here is multi-role. `Queue`'s atomic cursor sits between two plain
// fields with no alignas(64), so both neighbors cohabit its cache line.
// `Isolated` pads the atomic and the following field to line boundaries and
// is clean. `Paired` relies on a `same-line` declaration in the spec
// instead.
#include <atomic>
#include <cstdint>

namespace demo {

struct Queue {
  void Push() { head_.store(1, std::memory_order_release); }
  std::uint64_t Pop() { return head_.load(std::memory_order_acquire); }
  std::uint64_t scratch_ = 0;
  std::atomic<std::uint64_t> head_{0};
  std::uint64_t tail_cache_ = 0;
};

struct Isolated {
  void Push() { head_.store(1, std::memory_order_release); }
  std::uint64_t Pop() { return head_.load(std::memory_order_acquire); }
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::uint64_t tail_cache_ = 0;
};

struct Paired {
  void Push() { count_.store(1, std::memory_order_release); }
  std::uint64_t Pop() { return count_.load(std::memory_order_acquire); }
  std::atomic<std::uint64_t> count_{0};
  std::uint64_t shadow_ = 0;
};

}  // namespace demo
