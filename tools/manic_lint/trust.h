// Phase 4 of the whole-program analyzer: trust-boundary enforcement. Every
// bug the serving-plane review caught was the same shape — bytes from an
// untrusted peer (a decoded day near INT64_MAX, an unclamped length, an
// unbounded count) flowing unchecked into arithmetic, loop bounds, or
// allocation sizes. This tier makes that bug class a lint error. Two
// passes; the taint pass is driven by tools/manic_lint/trust.txt:
//
//   trust       (error)  per-file taint dataflow. The spec declares where
//                         untrusted data enters (decoder calls, wire-struct
//                         fields inside declared boundary files, argv) and
//                         which idioms launder it (named sanitizer functions,
//                         relational comparison against a declared guard
//                         constant or a number literal, modulo in an index).
//                         A tainted value reaching a sink — subscript index,
//                         resize/reserve/new[] size, loop bound, narrowing
//                         static_cast, multiplication with a declared
//                         time constant — with no sanitizing evidence
//                         anywhere in the file is an error carrying the full
//                         flow chain, units-pass style.
//   hot-path    (error)  `// manic-lint: hot-path(begin)` ... `hot-path(end)`
//                         comment regions fence the per-sample ingest code;
//                         inside them heap allocation, locking, and syscall
//                         identifiers are errors — the enforcement seam the
//                         SoA/arena scale-up builds against. An unmatched
//                         marker is itself an error, so regions cannot rot.
//
// Spec grammar (one directive per line, '#' comments):
//   source <fn>        calls to <fn> taint the assigned variable and any
//                      &out-style arguments
//   taint <ident>      <ident> is tainted wherever it appears (e.g. argv)
//   field <member>     member accesses `.member` / `->member` are tainted,
//                      but only inside declared boundary files
//   boundary <substr>  files whose path contains <substr> are trust
//                      boundaries (field taints apply there)
//   sanitizer <fn>     passing a tainted value to <fn> (a trailing '*'
//                      makes it a prefix, e.g. Validate*) sanitizes it
//   guard <ident>      a relational comparison against <ident> sanitizes
//                      the compared value (e.g. kMaxAbsSampleDay, size)
//   time-const <ident> multiplying a tainted value by <ident> is the
//                      day/time-arithmetic sink (e.g. kSecPerDay)
//
// Must-check outcomes are not a lint pass: status-like results carry
// [[nodiscard]] and every target builds with -Werror=unused-result, so the
// compiler rejects a silent discard (tests/compile_fail/ proves it).
//
// Suppression: `// manic-lint: allow(trust)`, `allow(hot-path)` — same
// line-or-line-above contract, same audit, as every other pass.
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "facts.h"
#include "lint.h"

namespace manic::lint {

struct TrustSpec {
  std::set<std::string, std::less<>> sources;      // tainting calls
  std::set<std::string, std::less<>> taints;       // always-tainted idents
  std::set<std::string, std::less<>> fields;       // tainted member names
  std::vector<std::string> boundaries;             // path substrings
  std::set<std::string, std::less<>> sanitizers;   // exact names
  std::vector<std::string> sanitizer_prefixes;     // from trailing-'*' names
  std::set<std::string, std::less<>> guards;       // bound constants
  std::set<std::string, std::less<>> time_consts;  // day/time scale idents
  bool loaded = false;

  // True when `path` (normalized) lies inside a declared trust boundary.
  bool InBoundary(std::string_view path) const;
  // True when `name` matches a sanitizer (exact or declared prefix).
  bool IsSanitizer(std::string_view name) const;
};

// Parses spec text. On a malformed line, returns an unloaded spec and sets
// `error` to a human-readable description.
TrustSpec ParseTrustSpec(std::string_view text, std::string* error);

// Reads and parses a spec file; unreadable file => unloaded spec + `error`.
TrustSpec LoadTrustSpec(const std::string& path, std::string* error);

// The taint pass: per-file source->sink dataflow (rule "trust").
void RunTrustPass(const FactsTable& table, const TrustSpec& spec,
                  std::vector<Finding>& out);

// The hot-path contract pass (rule "hot-path"). Runs off the markers in
// TuFacts::hot_markers; needs no spec and always runs.
void RunHotPathPass(const FactsTable& table, std::vector<Finding>& out);

}  // namespace manic::lint
