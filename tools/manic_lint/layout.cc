#include "layout.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

#include "concurrency.h"
#include "lexer.h"
#include "rules.h"

namespace manic::lint {
namespace {

bool IsPunct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool IsIdent(const Token& t) { return t.kind == TokKind::kIdent; }

bool ControlWord(std::string_view s) {
  static const std::set<std::string, std::less<>> kWords = {
      "alignas",  "alignof",  "case",      "catch",    "co_await",
      "co_return", "co_yield", "constexpr", "decltype", "defined",
      "delete",   "for",      "if",        "new",      "noexcept",
      "requires", "return",   "sizeof",    "static_assert",
      "switch",   "throw",    "typeid",    "using",    "while"};
  return kWords.count(s) > 0;
}

// `ident(` or `ident<...>(`: explicit template arguments are part of the
// call head, so `make_unique<Item>(...)` is still a call to make_unique.
// A lone `<` that never closes before `;`/`{` is a comparison, not a
// template argument list.
bool IsCallHeadMaybeTemplated(const std::vector<Token>& toks, std::size_t i) {
  if (!IsIdent(toks[i]) || ControlWord(toks[i].text)) return false;
  std::size_t j = i + 1;
  if (j < toks.size() && IsPunct(toks[j], "<")) {
    int depth = 0;
    while (j < toks.size()) {
      if (toks[j].kind == TokKind::kPunct) {
        const std::string& p = toks[j].text;
        if (p == "<") {
          ++depth;
        } else if (p == ">") {
          if (--depth == 0) {
            ++j;
            break;
          }
        } else if (p == ";" || p == "{" || p == "}") {
          return false;
        }
      }
      ++j;
    }
    if (depth != 0) return false;
  }
  return j < toks.size() && IsPunct(toks[j], "(");
}

// toks[i] is the member name of a `base.member` / `base->member` access.
bool IsMemberName(const std::vector<Token>& toks, std::size_t i) {
  if (i == 0) return false;
  if (IsPunct(toks[i - 1], ".")) return true;
  return i >= 2 && IsPunct(toks[i - 1], ">") && IsPunct(toks[i - 2], "-");
}

std::size_t MatchClose(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t j = open; j < toks.size(); ++j) {
    const Token& t = toks[j];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "(" || t.text == "[" || t.text == "{") {
      ++depth;
    } else if (t.text == ")" || t.text == "]" || t.text == "}") {
      if (--depth == 0) return j;
    }
  }
  return toks.size();
}

std::size_t MatchOpen(const std::vector<Token>& toks, std::size_t close) {
  int depth = 0;
  for (std::size_t j = close + 1; j-- > 0;) {
    const Token& t = toks[j];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == ")" || t.text == "]" || t.text == "}") {
      ++depth;
    } else if (t.text == "(" || t.text == "[" || t.text == "{") {
      if (--depth == 0) return j;
    }
    if (j == 0) break;
  }
  return 0;
}

// Every finding honors both its own rule name and the `layout` family name,
// so `// manic-lint: allow(layout: false-sharing)` silences it while
// leaving both names visible in the suppression audit.
void Emit(const TuFacts& file, int line, const char* rule, Severity severity,
          std::string message, std::vector<Finding>& out) {
  if (FactsTable::IsAllowed(file, line, rule)) return;
  if (FactsTable::IsAllowed(file, line, "layout")) return;
  out.push_back({file.path, line, rule, severity, std::move(message)});
}

void SortUnique(std::vector<Finding>& found, std::vector<Finding>& out) {
  std::sort(found.begin(), found.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.message) <
                     std::tie(b.file, b.line, b.message);
            });
  found.erase(std::unique(found.begin(), found.end(),
                          [](const Finding& a, const Finding& b) {
                            return a.file == b.file && a.line == b.line &&
                                   a.message == b.message;
                          }),
              found.end());
  out.insert(out.end(), std::make_move_iterator(found.begin()),
             std::make_move_iterator(found.end()));
}

// ---- struct scanning -------------------------------------------------------

// One instance field: what the false-sharing check needs to know about it.
struct FieldDecl {
  std::string name;
  bool is_atomic = false;
  int alignas_bytes = 0;  // alignas(N) on the field, 0 = none
  int line = 0;
};

struct StructDecl {
  std::string name;
  const TuFacts* file = nullptr;
  std::vector<FieldDecl> fields;
};

struct ClassSpan {
  std::string name;
  std::size_t begin = 0;  // '{'
  std::size_t end = 0;    // matching '}'
};

std::vector<ClassSpan> ScanClassSpans(const std::vector<Token>& toks) {
  std::vector<ClassSpan> spans;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (!IsIdent(t) ||
        (t.text != "class" && t.text != "struct" && t.text != "union")) {
      continue;
    }
    if (i > 0 && IsIdent(toks[i - 1]) && toks[i - 1].text == "enum") continue;
    std::size_t n = i + 1;
    // `struct alignas(64) Name` — the annotation sits between the keyword
    // and the name.
    if (n < toks.size() && IsIdent(toks[n]) && toks[n].text == "alignas" &&
        n + 1 < toks.size() && IsPunct(toks[n + 1], "(")) {
      n = MatchClose(toks, n + 1) + 1;
    }
    if (n >= toks.size() || !IsIdent(toks[n])) continue;  // anonymous
    const std::string& name = toks[n].text;
    std::size_t j = n + 1;
    while (j < toks.size()) {
      if (IsPunct(toks[j], "<")) {
        j = SkipAngles(toks, j);
        continue;
      }
      if (IsPunct(toks[j], "{")) break;
      if (toks[j].kind == TokKind::kPunct &&
          (toks[j].text == ";" || toks[j].text == "(" ||
           toks[j].text == ")" || toks[j].text == ">" ||
           toks[j].text == "," || toks[j].text == "=")) {
        j = toks.size();
        break;
      }
      ++j;
    }
    if (j >= toks.size()) continue;
    spans.push_back({name, j, MatchClose(toks, j)});
  }
  return spans;
}

bool TypeIntroducer(std::string_view s) {
  return s == "struct" || s == "class" || s == "enum" || s == "union";
}

bool SkippableMemberHead(std::string_view s) {
  return s == "friend" || s == "using" || s == "typedef" ||
         s == "static" || s == "template" || s == "static_assert" ||
         s == "operator" || s == "public" || s == "private" ||
         s == "protected" || s == "explicit" || s == "virtual";
}

// Parses the member statements of one class body into field declarations.
// Statements that are not instance fields (methods, nested types, friends,
// using-aliases, static members) are skipped.
std::vector<FieldDecl> ParseFields(const std::vector<Token>& toks,
                                   std::size_t body_begin,
                                   std::size_t body_end) {
  std::vector<FieldDecl> fields;
  std::size_t i = body_begin + 1;
  while (i < body_end) {
    // Access specifiers.
    if (IsIdent(toks[i]) &&
        (toks[i].text == "public" || toks[i].text == "private" ||
         toks[i].text == "protected") &&
        i + 1 < body_end && IsPunct(toks[i + 1], ":")) {
      i += 2;
      continue;
    }
    if (IsPunct(toks[i], ";")) {
      ++i;
      continue;
    }
    // One statement: collect top-level tokens, skipping nested groups.
    const std::size_t stmt_begin = i;
    bool saw_parens_before_init = false;
    bool saw_body_brace = false;
    bool saw_operator = false;  // `X& operator=(...) = delete;` is a function
    std::size_t init_start = 0;  // 0 = none; token index of '=' or init '{'
    bool nested_type = IsIdent(toks[i]) && TypeIntroducer(toks[i].text);
    std::size_t j = i;
    while (j < body_end) {
      const Token& t = toks[j];
      if (IsIdent(t) && t.text == "operator") saw_operator = true;
      if (IsPunct(t, ";")) break;
      if (IsPunct(t, "<")) {
        const std::size_t after = SkipAngles(toks, j);
        if (after != j) {
          j = after;
          continue;
        }
      }
      if (IsPunct(t, "(")) {
        // alignas(N) parens are part of a field declaration, not a
        // function's parameter list.
        const bool alignas_group =
            j > body_begin && IsIdent(toks[j - 1]) &&
            toks[j - 1].text == "alignas";
        if (init_start == 0 && !alignas_group) saw_parens_before_init = true;
        j = MatchClose(toks, j) + 1;
        continue;
      }
      if (IsPunct(t, "[")) {
        j = MatchClose(toks, j) + 1;
        continue;
      }
      if (IsPunct(t, "=") && init_start == 0 &&
          !(j + 1 < body_end && IsPunct(toks[j + 1], "="))) {
        init_start = j;
        ++j;
        continue;
      }
      if (IsPunct(t, "{")) {
        if (init_start == 0 && !saw_parens_before_init && !nested_type) {
          init_start = j;  // brace default-init `int x{0};`
        }
        j = MatchClose(toks, j) + 1;
        if (saw_parens_before_init && init_start == 0) {
          // Function definition: body brace ends the statement, no ';'.
          saw_body_brace = true;
          break;
        }
        continue;
      }
      ++j;
    }
    const std::size_t stmt_end = j;  // ';' or past the body brace
    i = saw_body_brace ? stmt_end : stmt_end + 1;

    if (nested_type || saw_body_brace || saw_parens_before_init ||
        saw_operator) {
      continue;
    }
    if (stmt_end <= stmt_begin) continue;
    if (IsIdent(toks[stmt_begin]) && SkippableMemberHead(toks[stmt_begin].text))
      continue;

    // Split the statement into declarator chunks at top-level commas:
    // `std::int64_t a = 0, b = 0;` declares two fields of one type.
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    std::size_t chunk_begin = stmt_begin;
    for (std::size_t k = stmt_begin; k < stmt_end;) {
      const Token& t = toks[k];
      if (IsPunct(t, "<")) {
        const std::size_t after = SkipAngles(toks, k);
        if (after != k) {
          k = after;
          continue;
        }
      }
      if (IsPunct(t, "(") || IsPunct(t, "[") || IsPunct(t, "{")) {
        k = MatchClose(toks, k) + 1;
        continue;
      }
      if (IsPunct(t, ",")) {
        chunks.emplace_back(chunk_begin, k);
        chunk_begin = k + 1;
      }
      ++k;
    }
    chunks.emplace_back(chunk_begin, stmt_end);

    FieldDecl base;  // the atomic-ness and alignas every declarator shares
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      const auto [cb, ce] = chunks[c];
      FieldDecl field = base;
      field.line = toks[cb].line;
      // Walk the declarator up to its initializer ('=' or a brace-init):
      // alignas, cv/mutable noise, type idents and the declared name.
      std::vector<std::string> idents;
      for (std::size_t k = cb; k < ce; ++k) {
        const Token& t = toks[k];
        if (IsPunct(t, "=") || IsPunct(t, "{")) break;
        if (IsIdent(t) && t.text == "alignas" && k + 1 < ce &&
            IsPunct(toks[k + 1], "(")) {
          const std::size_t close = MatchClose(toks, k + 1);
          for (std::size_t a = k + 2; a < close && a < ce; ++a) {
            if (toks[a].kind == TokKind::kNumber) {
              field.alignas_bytes = std::atoi(toks[a].text.c_str());
            }
          }
          k = close;
          continue;
        }
        if (IsPunct(t, "<")) {
          const std::size_t after = SkipAngles(toks, k);
          if (after != k) k = after - 1;
          continue;
        }
        if (IsPunct(t, "(") || IsPunct(t, "[")) {
          k = MatchClose(toks, k);
          continue;
        }
        if (IsIdent(t) && t.text != "std" && t.text != "const" &&
            t.text != "volatile" && t.text != "mutable" &&
            t.text != "constexpr" && t.text != "inline") {
          idents.push_back(t.text);
        }
      }
      if (c == 0) {
        if (idents.size() < 2) break;  // need at least a type and a name
        field.is_atomic = std::find(idents.begin(), idents.end() - 1,
                                    "atomic") != idents.end() - 1;
        base = field;
      } else if (idents.empty()) {
        continue;  // stray comma, nothing declared
      }
      field.name = idents.back();
      fields.push_back(std::move(field));
    }
  }
  return fields;
}

std::vector<StructDecl> CollectStructs(const FactsTable& table) {
  std::vector<StructDecl> structs;
  for (const TuFacts& file : table.Files()) {
    for (const ClassSpan& span : ScanClassSpans(file.tokens)) {
      structs.push_back(
          {span.name, &file, ParseFields(file.tokens, span.begin, span.end)});
    }
  }
  return structs;
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

// ---- false-sharing pass ----------------------------------------------------

void CheckFalseSharing(const std::vector<StructDecl>& structs,
                       const LayoutSpec& spec,
                       const std::set<std::string, std::less<>>& multi_role,
                       std::vector<Finding>& out) {
  const auto group_of = [&](const StructDecl& decl,
                            const FieldDecl& field) -> int {
    const auto it = spec.same_line.find(decl.name + "::" + field.name);
    return it == spec.same_line.end() ? -1 : it->second;
  };
  for (const StructDecl& decl : structs) {
    if (multi_role.count(decl.name) == 0) continue;
    for (std::size_t f = 0; f < decl.fields.size(); ++f) {
      const FieldDecl& field = decl.fields[f];
      if (!field.is_atomic) continue;
      const int group = group_of(decl, field);
      std::vector<std::string> cohabitants;
      // Without alignas(64) the field can land on the tail of the previous
      // field's cache line; with or without it, the next field starts on
      // this line unless it is itself line-aligned.
      if (field.alignas_bytes < 64 && f > 0) {
        const FieldDecl& prev = decl.fields[f - 1];
        if (group < 0 || group_of(decl, prev) != group) {
          cohabitants.push_back(prev.name);
        }
      }
      if (f + 1 < decl.fields.size()) {
        const FieldDecl& next = decl.fields[f + 1];
        if (next.alignas_bytes < 64 &&
            (group < 0 || group_of(decl, next) != group)) {
          cohabitants.push_back(next.name);
        }
      }
      if (cohabitants.empty()) continue;
      Emit(*decl.file, field.line, "false-sharing", Severity::kError,
           "atomic field '" + decl.name + "::" + field.name +
               "' shares a 64-byte cache line with " +
               JoinNames(cohabitants) + " in a struct touched by more than "
               "one declared thread role; every write to a neighbor "
               "invalidates this line under the other thread — isolate it "
               "with alignas(64), or declare the cohabitation on a "
               "`same-line` line in tools/manic_lint/layout.txt",
           out);
    }
  }
}

// ---- alloc pass ------------------------------------------------------------

bool MatchesAxisPattern(const std::string& ident,
                        const std::vector<std::string>& patterns) {
  for (const std::string& pat : patterns) {
    if (!pat.empty() && pat.back() == '*') {
      const std::string_view prefix(pat.data(), pat.size() - 1);
      if (ident.size() >= prefix.size() &&
          ident.compare(0, prefix.size(), prefix) == 0) {
        return true;
      }
    } else if (ident == pat) {
      return true;
    }
  }
  return false;
}

// Receiver chain of the member call whose name sits at `i`: base identifier,
// number of member/subscript hops, and whether a subscript appears — enough
// to tell `out.push_back(x)` (amortized, fine) from
// `rows[i].cells.push_back(x)` (per-element growth of a nested container).
struct ReceiverChain {
  std::string base;
  int hops = 0;
  bool subscript = false;
};

ReceiverChain WalkReceiver(const std::vector<Token>& toks, std::size_t i) {
  ReceiverChain chain;
  std::size_t k = i;
  while (k > 0) {
    std::size_t q;
    if (IsPunct(toks[k - 1], ".")) {
      q = k - 2;
    } else if (k >= 2 && IsPunct(toks[k - 1], ">") &&
               IsPunct(toks[k - 2], "-")) {
      q = k - 3;
    } else {
      break;
    }
    ++chain.hops;
    if (q + 1 == 0 || q >= toks.size()) break;
    while (true) {
      if (IsPunct(toks[q], "]")) {
        chain.subscript = true;
        const std::size_t open = MatchOpen(toks, q);
        if (open == 0) return chain;
        q = open - 1;
        continue;
      }
      if (IsPunct(toks[q], ")")) {
        const std::size_t open = MatchOpen(toks, q);
        if (open == 0) return chain;
        q = open - 1;
        continue;
      }
      break;
    }
    if (q < toks.size() && IsIdent(toks[q])) {
      chain.base = toks[q].text;
      k = q;
      continue;
    }
    break;
  }
  return chain;
}

struct ScaleLoop {
  int line = 0;
  std::string axis;       // the matched collection identifier
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
};

std::vector<ScaleLoop> FindScaleLoops(const std::vector<Token>& toks,
                                      const LayoutSpec& spec) {
  std::vector<ScaleLoop> loops;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!IsIdent(toks[i]) || toks[i].text != "for") continue;
    if (!IsPunct(toks[i + 1], "(")) continue;
    const std::size_t close = MatchClose(toks, i + 1);
    if (close >= toks.size()) continue;
    // Range-for: the axis is any scale identifier after the ':'; indexed
    // for: any scale identifier in the condition (`i < links_.size()`).
    std::string axis;
    for (std::size_t j = i + 2; j < close; ++j) {
      if (!IsIdent(toks[j])) continue;
      if (MatchesAxisPattern(toks[j].text, spec.scale_axes)) {
        axis = toks[j].text;
        break;
      }
    }
    if (axis.empty()) continue;
    ScaleLoop loop;
    loop.line = toks[i].line;
    loop.axis = axis;
    std::size_t b = close + 1;
    if (b < toks.size() && IsPunct(toks[b], "{")) {
      loop.body_begin = b;
      loop.body_end = MatchClose(toks, b);
    } else {
      loop.body_begin = b;
      std::size_t e = b;
      int depth = 0;
      while (e < toks.size()) {
        if (toks[e].kind == TokKind::kPunct) {
          const std::string& p = toks[e].text;
          if (p == "(" || p == "[" || p == "{") ++depth;
          if (p == ")" || p == "]" || p == "}") --depth;
          if (p == ";" && depth == 0) break;
        }
        ++e;
      }
      loop.body_end = e;
    }
    loops.push_back(loop);
  }
  return loops;
}

const std::set<std::string, std::less<>>& AllocCallees() {
  static const std::set<std::string, std::less<>> kCallees = {
      "make_unique", "make_shared", "malloc", "calloc", "realloc", "strdup"};
  return kCallees;
}

const std::set<std::string, std::less<>>& NodeGrowthOps() {
  static const std::set<std::string, std::less<>> kOps = {
      "insert", "emplace", "try_emplace"};
  return kOps;
}

const std::set<std::string, std::less<>>& TailGrowthOps() {
  static const std::set<std::string, std::less<>> kOps = {"push_back",
                                                          "emplace_back"};
  return kOps;
}

void CheckFileAllocs(const TuFacts& file, const LayoutSpec& spec,
                     std::vector<Finding>& out) {
  const std::vector<Token>& toks = file.tokens;
  for (const ScaleLoop& loop : FindScaleLoops(toks, spec)) {
    const std::string flow =
        "[flow: for (... : " + loop.axis + ") at line " +
        std::to_string(loop.line) + " -> ";
    for (std::size_t j = loop.body_begin; j < loop.body_end; ++j) {
      const Token& t = toks[j];
      if (!IsIdent(t)) continue;
      if (t.text == "new" &&
          !(j > 0 && IsIdent(toks[j - 1]) && toks[j - 1].text == "operator")) {
        Emit(file, t.line, "alloc-scale", Severity::kError,
             "per-element `new` inside a loop over scale axis '" + loop.axis +
                 "' " + flow + "new]; at ~1M elements this is a malloc per "
                 "element — allocate through a declared arena path "
                 "(tools/manic_lint/layout.txt `arena`) or hoist the "
                 "allocation out of the loop",
             out);
        continue;
      }
      if (!IsCallHeadMaybeTemplated(toks, j)) continue;
      if (AllocCallees().count(t.text) > 0 &&
          spec.arena.count(t.text) == 0) {
        Emit(file, t.line, "alloc-scale", Severity::kError,
             "per-element heap allocation '" + t.text +
                 "(...)' inside a loop over scale axis '" + loop.axis + "' " +
                 flow + t.text + "(...)]; route it through a declared arena "
                 "path or hoist it out of the loop",
             out);
        continue;
      }
      if (!IsMemberName(toks, j)) continue;
      const ReceiverChain chain = WalkReceiver(toks, j);
      if (chain.base.empty() || spec.arena.count(chain.base) > 0) continue;
      if (NodeGrowthOps().count(t.text) > 0) {
        Emit(file, t.line, "alloc-scale", Severity::kError,
             "node-based growth '" + chain.base + "." + t.text +
                 "(...)' inside a loop over scale axis '" + loop.axis + "' " +
                 flow + chain.base + "." + t.text + "(...)]; a map/set node "
                 "per element fragments the heap at scale — use a "
                 "pre-sized flat structure or a declared arena path",
             out);
        continue;
      }
      if (TailGrowthOps().count(t.text) > 0 &&
          (chain.hops >= 2 || chain.subscript)) {
        Emit(file, t.line, "alloc-scale", Severity::kError,
             "nested-container growth '" + chain.base + "..." + t.text +
                 "(...)' inside a loop over scale axis '" + loop.axis + "' " +
                 flow + chain.base + "..." + t.text + "(...)]; growing an "
                 "inner container per element reallocates per element — "
                 "reserve up front, flatten to struct-of-arrays, or declare "
                 "the receiver an arena path",
             out);
      }
    }
  }
}

}  // namespace

// ---- spec parsing ----------------------------------------------------------

LayoutSpec ParseLayoutSpec(std::string_view text, std::string* error) {
  LayoutSpec spec;
  std::istringstream in{std::string(text)};
  std::string line;
  int lineno = 0;
  int next_group = 0;
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = "layout spec line " + std::to_string(lineno) + ": " + what;
    }
    return LayoutSpec{};
  };
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string word;
    if (!(fields >> word)) continue;
    if (word == "same-line") {
      std::string field;
      int count = 0;
      const int group = next_group++;
      while (fields >> field) {
        if (field.find("::") == std::string::npos) {
          return fail("same-line fields must be Class::field qualified");
        }
        spec.same_line[field] = group;
        ++count;
      }
      if (count < 2) {
        return fail("same-line needs at least two fields to share a line");
      }
    } else if (word == "scale-axis") {
      std::string pat;
      int count = 0;
      while (fields >> pat) {
        spec.scale_axes.push_back(pat);
        ++count;
      }
      if (count == 0) return fail("scale-axis lists no patterns");
    } else if (word == "arena") {
      std::string name;
      int count = 0;
      while (fields >> name) {
        spec.arena.insert(name);
        ++count;
      }
      if (count == 0) return fail("arena lists no identifiers");
    } else {
      return fail("unrecognized directive '" + word + "'");
    }
  }
  spec.loaded = !spec.same_line.empty() || !spec.scale_axes.empty() ||
                !spec.arena.empty();
  if (!spec.loaded && error != nullptr && error->empty()) {
    *error = "layout spec declares no same-line groups, scale axes, or arenas";
  }
  return spec;
}

LayoutSpec LoadLayoutSpec(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot read layout spec '" + path + "'";
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseLayoutSpec(buf.str(), error);
}

// ---- pass drivers ----------------------------------------------------------

void RunFalseSharingPass(const FactsTable& table, const LayoutSpec& spec,
                         const ConcurrencySpec* concurrency,
                         std::vector<Finding>& out) {
  if (!spec.loaded || concurrency == nullptr || !concurrency->loaded) return;
  std::vector<Finding> found;
  CheckFalseSharing(CollectStructs(table), spec,
                    MultiRoleClasses(table, *concurrency), found);
  SortUnique(found, out);
}

void RunAllocPass(const FactsTable& table, const LayoutSpec& spec,
                  std::vector<Finding>& out) {
  if (!spec.loaded || spec.scale_axes.empty()) return;
  std::vector<Finding> found;
  for (const TuFacts& file : table.Files()) {
    CheckFileAllocs(file, spec, found);
  }
  SortUnique(found, out);
}

}  // namespace manic::lint
