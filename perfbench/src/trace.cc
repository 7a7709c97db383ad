#include "trace.h"

#include <cstdio>
#include <string_view>

namespace perfbench {

std::int32_t Tracer::Open(const char* name, std::uint64_t op,
                          std::uint64_t calls) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  span.calls = calls;
  span.start_ns = NowNs();
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::Close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
  // Scopes close in reverse order of opening.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::Fold(const char* name, std::int64_t ns, std::uint64_t calls) {
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  for (Folded& f : folded_) {
    if (f.parent == parent && std::string_view(f.name) == name) {
      f.total_ns += ns;
      f.calls += calls;
      return;
    }
  }
  folded_.push_back({name, parent, ns, calls});
}

double Tracer::Seconds(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  for (const Folded& f : folded_) {
    if (name == f.name) ns += f.total_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::uint64_t Tracer::Calls(const std::string& name) const {
  std::uint64_t calls = 0;
  for (const Span& s : spans_) {
    if (name == s.name) calls += s.calls;
  }
  for (const Folded& f : folded_) {
    if (name == f.name) calls += f.calls;
  }
  return calls;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  }
  return out;
}

std::vector<std::int64_t> Tracer::ChildNs() const {
  std::vector<std::int64_t> child(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  for (const Folded& f : folded_) {
    if (f.parent >= 0) child[static_cast<std::size_t>(f.parent)] += f.total_ns;
  }
  return child;
}

namespace {

std::string LayerOf(const char* name) {
  const std::string_view n(name);
  const std::size_t dot = n.find('.');
  return dot == std::string_view::npos ? std::string() : std::string(n.substr(0, dot));
}

}  // namespace

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  const std::vector<std::int64_t> child = ChildNs();
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string layer = LayerOf(spans_[i].name);
    if (layer.empty()) continue;
    self[layer] += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                       child[i]) * 1e-9;
  }
  for (const Folded& f : folded_) {
    const std::string layer = LayerOf(f.name);
    if (!layer.empty()) self[layer] += static_cast<double>(f.total_ns) * 1e-9;
  }
  return self;
}

double Tracer::UnattributedFrac(const std::string& root) const {
  const std::vector<std::int64_t> child = ChildNs();
  std::int64_t total = 0;
  std::int64_t uncovered = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (root != spans_[i].name) continue;
    const std::int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    total += dur;
    uncovered += dur - child[i];
  }
  return total > 0 ? static_cast<double>(uncovered) / static_cast<double>(total)
                   : 0.0;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"op\":%llu,\"calls\":%llu}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.calls));
  }
  for (const Folded& fo : folded_) {
    std::fprintf(f,
                 "{\"folded\":\"%s\",\"parent\":%d,\"total_ns\":%lld,"
                 "\"calls\":%llu}\n",
                 fo.name, fo.parent, static_cast<long long>(fo.total_ns),
                 static_cast<unsigned long long>(fo.calls));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
