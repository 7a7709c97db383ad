// Phase 6 of the whole-program analyzer: the memory-layout and allocation
// contracts the compiler cannot check. Byte budgets and wire-format pins are
// not here: they are static_asserts next to each struct (sizeof, offsetof
// and a structured-binding field count), proven by every compile and guarded
// by the compile-fail tests in tests/compile_fail/. Two passes, driven by
// tools/manic_lint/layout.txt:
//
//   false-sharing (error) an atomic field in a struct touched by more than
//                         one declared thread role (concurrency.txt roles,
//                         propagated over the call graph) that shares a
//                         64-byte line with another mutable field and lacks
//                         alignas(64) is an error unless the cohabitation
//                         is declared `same-line`.
//   alloc-scale (error)   per-element heap allocation inside a loop that
//                         iterates a spec-declared scale-axis collection
//                         (per-interface, per-link, per-sample): new /
//                         make_unique / make_shared / malloc, node-based
//                         map/set growth (insert/emplace/try_emplace), and
//                         push_back into nested containers, unless the
//                         callee or receiver is a declared `arena` path.
//                         This is the lintable arena discipline the
//                         scale-up builds against.
//
// Spec grammar (one directive per line, '#' comments):
//   same-line <Class::field>...    fields allowed to cohabit one cache line
//                                  on purpose (e.g. two relaxed counters
//                                  written by the same thread); the spec
//                                  line is the audit trail
//   scale-axis <pattern>...        collection names that grow with topology
//                                  scale (trailing '*' = prefix match)
//   arena <ident>...               sanctioned bulk-allocation callees and
//                                  receivers inside scale loops
//
// Suppression: `// manic-lint: allow(layout: <rule>)` (or the bare rule
// name) on the finding's line or the line above — the `layout:` family
// prefix also lands in the lint.json audit.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "facts.h"
#include "lint.h"

namespace manic::lint {

struct ConcurrencySpec;  // concurrency.h

struct LayoutSpec {
  // same-line groups: field pattern ("Class::field") -> group id; fields in
  // one group may share a cache line without a false-sharing finding.
  std::map<std::string, int, std::less<>> same_line;
  std::vector<std::string> scale_axes;  // trailing '*' ok
  std::set<std::string, std::less<>> arena;
  bool loaded = false;
};

// Parses spec text. On a malformed line, returns an unloaded spec and sets
// `error` to a human-readable description.
LayoutSpec ParseLayoutSpec(std::string_view text, std::string* error);

// Reads and parses a spec file; unreadable file => unloaded spec + `error`.
LayoutSpec LoadLayoutSpec(const std::string& path, std::string* error);

// The false-sharing pass (rule "false-sharing") over the structs the
// concurrency roles reach from more than one role. A null or unloaded
// `concurrency` spec leaves no multi-role struct, so nothing is checked.
void RunFalseSharingPass(const FactsTable& table, const LayoutSpec& spec,
                         const ConcurrencySpec* concurrency,
                         std::vector<Finding>& out);

// The allocation pass: per-element heap allocation inside scale-axis loops
// (rule "alloc-scale").
void RunAllocPass(const FactsTable& table, const LayoutSpec& spec,
                  std::vector<Finding>& out);

}  // namespace manic::lint
