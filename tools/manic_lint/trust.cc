#include "trust.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

#include "lexer.h"
#include "rules.h"

namespace manic::lint {
namespace {

bool IsPunct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool IsIdent(const Token& t) { return t.kind == TokKind::kIdent; }

// Keywords that precede '(' without being function calls or declarations.
bool ControlWord(std::string_view s) {
  static const std::set<std::string, std::less<>> kWords = {
      "alignas",  "alignof",       "case",     "catch",    "co_await",
      "co_return", "co_yield",     "decltype", "defined",  "delete",
      "for",      "if",            "new",      "noexcept", "requires",
      "return",   "sizeof",        "static_assert",        "switch",
      "throw",    "typeid",        "using",    "while"};
  return kWords.count(s) > 0;
}

bool IsCallHead(const std::vector<Token>& toks, std::size_t i) {
  return IsIdent(toks[i]) && i + 1 < toks.size() &&
         IsPunct(toks[i + 1], "(") && !ControlWord(toks[i].text);
}

// toks[i] is the member name of a `base.member` / `base->member` access.
// (The lexer splits compound operators, so '->' arrives as '-' '>').
bool IsMemberName(const std::vector<Token>& toks, std::size_t i) {
  if (i == 0) return false;
  if (IsPunct(toks[i - 1], ".")) return true;
  return i >= 2 && IsPunct(toks[i - 1], ">") && IsPunct(toks[i - 2], "-");
}

// Index of the bracket matching the opener at `open` ('(', '[' or '{'), or
// toks.size() on unbalanced input.
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

// Index of the bracket matching the closer at `close`, or 0 on unbalanced
// input.
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

// ---- taint pass ------------------------------------------------------------

// Per-file analysis state. `chains` maps a tainted variable to the flow
// chain that tainted it ("GetU32(&count) -> count"); `sanitized` holds the
// subset for which the file shows bounds-check evidence anywhere (the model
// is deliberately position-insensitive: one guard anywhere in the file
// clears the variable, which keeps the walker simple and the false-positive
// rate near zero on idiomatic validate-then-use code).
struct TaintState {
  std::map<std::string, std::string, std::less<>> chains;
  std::set<std::string, std::less<>> sanitized;
};

// Name of the variable at the base of the member chain ending at the member
// name `i` (`s` for `s->t`), or "" when the base is not a plain identifier.
std::string MemberBase(const std::vector<Token>& toks, std::size_t i) {
  std::size_t q = i;
  if (i >= 1 && IsPunct(toks[i - 1], ".")) q = i - 2;
  else if (i >= 2 && IsPunct(toks[i - 1], ">") && IsPunct(toks[i - 2], "-"))
    q = i - 3;
  else
    return {};
  if (q < toks.size() && IsIdent(toks[q])) return toks[q].text;
  return {};
}

// If the token at `i` carries unsanitized taint, returns its flow chain
// (empty string otherwise). A member name is tainted only as a declared
// wire field inside a boundary file; a plain identifier is tainted when the
// fixpoint marked it and no sanitizing evidence cleared it.
std::string TaintAt(const std::vector<Token>& toks, std::size_t i,
                    const TrustSpec& spec, const TaintState& state,
                    bool boundary) {
  const Token& t = toks[i];
  if (!IsIdent(t)) return {};
  if (IsMemberName(toks, i)) {
    if (boundary && spec.fields.count(t.text) > 0) {
      const std::string base = MemberBase(toks, i);
      return (base.empty() ? std::string("<expr>") : base) + "." + t.text +
             " (wire field)";
    }
    return {};
  }
  const auto it = state.chains.find(t.text);
  if (it == state.chains.end()) return {};
  if (state.sanitized.count(t.text) > 0) return {};
  return it->second;
}

// First taint carrier in [begin, end): a tainted identifier, a boundary
// wire-field access, or a call to a declared source function.
std::string RangeTaint(const std::vector<Token>& toks, std::size_t begin,
                       std::size_t end, const TrustSpec& spec,
                       const TaintState& state, bool boundary) {
  for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
    if (!IsIdent(toks[i])) continue;
    // A sanitizer call returns a clean value by definition: skip its whole
    // argument list so `w = ParseBoundedInt(argv[i], lo, hi)` stays clean.
    if (spec.IsSanitizer(toks[i].text)) {
      std::size_t j = i + 1;
      if (j < toks.size() && IsPunct(toks[j], "<")) j = SkipAngles(toks, j);
      if (j < toks.size() && IsPunct(toks[j], "(")) {
        i = MatchClose(toks, j);
        continue;
      }
    }
    // Source calls count plain or member-qualified (`d.GetU32(...)`).
    if (IsCallHead(toks, i) && spec.sources.count(toks[i].text) > 0) {
      return toks[i].text + "(...)";
    }
    const std::string chain = TaintAt(toks, i, spec, state, boundary);
    if (!chain.empty()) return chain;
  }
  return {};
}

// Seeds: declared always-tainted identifiers (argv) and the &out-arguments
// of declared source calls (`d->GetU32(&count)` taints `count`).
void SeedTaints(const TuFacts& file, const TrustSpec& spec,
                TaintState* state) {
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (!IsIdent(t)) continue;
    if (spec.taints.count(t.text) > 0 && !IsMemberName(toks, i)) {
      state->chains.emplace(t.text, t.text + " (declared taint)");
    }
    if (!IsCallHead(toks, i) || spec.sources.count(t.text) == 0) continue;
    const std::size_t close = MatchClose(toks, i + 1);
    for (std::size_t j = i + 2; j < close; ++j) {
      if (!IsPunct(toks[j], "&")) continue;
      for (std::size_t k = j + 1; k < close; ++k) {
        if (IsIdent(toks[k])) {
          state->chains.emplace(toks[k].text,
                                t.text + "(&" + toks[k].text + ")");
          break;
        }
        if (toks[k].kind == TokKind::kPunct && toks[k].text != "(") break;
      }
    }
  }
}

// The '=' at `k` is a plain assignment (not ==, <=, >=, !=).
bool PlainAssign(const std::vector<Token>& toks, std::size_t k) {
  if (!IsPunct(toks[k], "=")) return false;
  if (k + 1 < toks.size() && IsPunct(toks[k + 1], "=")) return false;
  if (k == 0) return true;
  const Token& prev = toks[k - 1];
  return !(IsPunct(prev, "=") || IsPunct(prev, "<") || IsPunct(prev, ">") ||
           IsPunct(prev, "!"));
}

// Assignment-target variable for the '=' at `k`, walking `x`, `x +=`,
// `arr[i] =`, and `obj.field =` (the base object is what gets tainted) back
// to a plain identifier. toks.size() when there is none.
std::size_t AssignLhs(const std::vector<Token>& toks, std::size_t k) {
  std::size_t lhs = toks.size();
  const Token& prev = toks[k - 1];
  if (IsIdent(prev)) {
    lhs = k - 1;
  } else if ((IsPunct(prev, "+") || IsPunct(prev, "-") || IsPunct(prev, "*") ||
              IsPunct(prev, "/") || IsPunct(prev, "|") || IsPunct(prev, "&")) &&
             k >= 2 && IsIdent(toks[k - 2])) {
    lhs = k - 2;  // compound assignment; the lexer splits the operator
  } else if (IsPunct(prev, "]")) {
    const std::size_t open = MatchOpen(toks, k - 1);
    if (open > 0 && IsIdent(toks[open - 1])) lhs = open - 1;
  }
  // `obj.field = tainted` taints the base object, not the member name.
  for (int hops = 0; hops < 8 && lhs < toks.size(); ++hops) {
    if (!IsMemberName(toks, lhs)) break;
    const std::string base = MemberBase(toks, lhs);
    if (base.empty()) return toks.size();
    std::size_t q = lhs;
    if (IsPunct(toks[lhs - 1], ".")) q = lhs - 2;
    else q = lhs - 3;
    lhs = q;
  }
  return lhs;
}

// End of the RHS expression starting after the '=' at `k`: the first
// top-level ';' or ',', or a closing bracket leaving the expression.
std::size_t RhsEnd(const std::vector<Token>& toks, std::size_t k) {
  std::size_t e = k + 1;
  int depth = 0;
  for (; e < toks.size(); ++e) {
    const Token& t = toks[e];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "(" || t.text == "[" || t.text == "{") {
      ++depth;
    } else if (t.text == ")" || t.text == "]" || t.text == "}") {
      if (--depth < 0) break;
    } else if (depth == 0 && (t.text == ";" || t.text == ",")) {
      break;
    }
  }
  return e;
}

// One propagation sweep over the file's assignments. Returns true when a
// new variable picked up taint. Sanitized variables do not propagate —
// `producer_last_closed_ = day` is clean once `day` was range-checked.
// Propagation reads a snapshot of the round-start state: the sanitized set
// is computed before each round, so letting taint written earlier in the
// same sweep flow onward would race past the guard that clears it
// (`day = DayOf(s.t)` ... `if (day > kMax)` ... `closed_ = day` must stay
// clean no matter where the guard sits).
bool PropagateOnce(const TuFacts& file, const TrustSpec& spec,
                   TaintState* state, bool boundary) {
  const std::vector<Token>& toks = file.tokens;
  const TaintState before = *state;
  bool changed = false;
  for (std::size_t k = 1; k < toks.size(); ++k) {
    if (!PlainAssign(toks, k)) continue;
    const std::size_t lhs = AssignLhs(toks, k);
    if (lhs >= toks.size()) continue;
    const std::string& name = toks[lhs].text;
    if (state->chains.count(name) > 0) continue;
    const std::size_t e = RhsEnd(toks, k);
    const std::string carrier =
        RangeTaint(toks, k + 1, e, spec, before, boundary);
    if (carrier.empty()) continue;
    state->chains.emplace(name, carrier + " -> " + name);
    changed = true;
  }
  return changed;
}

// Wide comparison operand: tokens from `from` toward `dir` until a
// statement/expression boundary at bracket depth zero. Brackets are tracked
// so `payload.size() - pos < 4 + f(x)` keeps both operands whole.
struct Operand {
  std::size_t begin = 0;
  std::size_t end = 0;  // [begin, end)
};

bool BoundaryTokenAt(const std::vector<Token>& toks, std::size_t j) {
  const Token& t = toks[j];
  if (t.kind == TokKind::kIdent) {
    return t.text == "return" || t.text == "if" || t.text == "while" ||
           t.text == "for";
  }
  if (t.kind != TokKind::kPunct) return false;
  if (t.text == ";" || t.text == "{" || t.text == "}" || t.text == "," ||
      t.text == "?") {
    return true;
  }
  if (t.text == "&" || t.text == "|") {  // '&&' / '||'
    return (j + 1 < toks.size() && IsPunct(toks[j + 1], t.text)) ||
           (j > 0 && IsPunct(toks[j - 1], t.text));
  }
  if (t.text == "=") return PlainAssign(toks, j);
  if (t.text == ":") {  // label / ternary, but never '::'
    return !(j > 0 && IsPunct(toks[j - 1], ":")) &&
           !(j + 1 < toks.size() && IsPunct(toks[j + 1], ":"));
  }
  return false;
}

Operand OperandLeft(const std::vector<Token>& toks, std::size_t op) {
  Operand o{op, op};
  int depth = 0;
  for (std::size_t j = op; j-- > 0;) {
    const Token& t = toks[j];
    if (t.kind == TokKind::kPunct) {
      if (t.text == ")" || t.text == "]") ++depth;
      if (t.text == "(" || t.text == "[") {
        if (depth == 0) break;
        --depth;
      }
    }
    if (depth == 0 && BoundaryTokenAt(toks, j)) break;
    o.begin = j;
    if (op - j > 60) break;
  }
  return o;
}

Operand OperandRight(const std::vector<Token>& toks, std::size_t from) {
  Operand o{from, from};
  int depth = 0;
  for (std::size_t j = from; j < toks.size(); ++j) {
    const Token& t = toks[j];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(" || t.text == "[") ++depth;
      if (t.text == ")" || t.text == "]") {
        if (depth == 0) break;
        --depth;
      }
    }
    if (depth == 0 && BoundaryTokenAt(toks, j)) break;
    o.end = j + 1;
    if (j - from > 60) break;
  }
  return o;
}

// The relational operator at `k` ('<' '>' '<=' '>='), if it is one; sets
// `right` to the first token of the right operand. Stream/shift, arrow and
// equality operators are rejected; template angles slip through but cannot
// sanitize anything on their own (sanitization needs a guard or a literal
// on the other side of a taint carrier).
bool RelationalAt(const std::vector<Token>& toks, std::size_t k,
                  std::size_t* right) {
  const Token& t = toks[k];
  if (t.kind != TokKind::kPunct || (t.text != "<" && t.text != ">")) {
    return false;
  }
  if (k + 1 < toks.size() && IsPunct(toks[k + 1], t.text)) return false;
  if (k > 0 && IsPunct(toks[k - 1], t.text)) return false;  // 2nd of << >>
  if (t.text == ">" && k > 0 && IsPunct(toks[k - 1], "-")) return false;
  *right = (k + 1 < toks.size() && IsPunct(toks[k + 1], "=")) ? k + 2 : k + 1;
  return true;
}

// Sanitizing evidence, position-insensitive within the file:
//   - a tainted variable passed to a declared sanitizer function;
//   - a relational comparison whose operands hold the variable and either a
//     declared guard identifier (anywhere) or a number literal (opposite
//     side) — `if (count > kMaxSampleKind)`, `if (len > 64)`.
// Modulo is handled at the subscript sink itself ('%' inside the index).
void ComputeSanitized(const TuFacts& file, const TrustSpec& spec,
                      TaintState* state) {
  state->sanitized.clear();
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (!IsIdent(t) || !spec.IsSanitizer(t.text)) continue;
    std::size_t j = i + 1;
    if (j < toks.size() && IsPunct(toks[j], "<")) j = SkipAngles(toks, j);
    if (j >= toks.size() || !IsPunct(toks[j], "(")) continue;
    const std::size_t close = MatchClose(toks, j);
    for (std::size_t k = j + 1; k < close; ++k) {
      if (IsIdent(toks[k]) && state->chains.count(toks[k].text) > 0 &&
          !IsMemberName(toks, k)) {
        state->sanitized.insert(toks[k].text);
      }
    }
  }
  for (std::size_t k = 1; k + 1 < toks.size(); ++k) {
    std::size_t right = 0;
    if (!RelationalAt(toks, k, &right)) continue;
    const Operand left = OperandLeft(toks, k);
    const Operand rhs = OperandRight(toks, right);
    bool guard = false;
    bool lit_left = false, lit_right = false;
    std::vector<std::pair<std::string, bool>> tainted;  // (name, on_left)
    // A literal only counts as a bound when the operand is purely constant
    // (`len > 64`, `0 < count`): a number buried in an expression — or in
    // template angles misparsed as a relational, `1 + Hash(i) %
    // static_cast<uint64_t>(w.links)` — is not bounding evidence.
    const auto scan = [&](const Operand& o, bool on_left, bool* lit) {
      bool number = false, ident = false;
      for (std::size_t j = o.begin; j < o.end; ++j) {
        const Token& tj = toks[j];
        if (tj.kind == TokKind::kNumber) number = true;
        if (!IsIdent(tj)) continue;
        ident = true;
        if (spec.guards.count(tj.text) > 0) guard = true;
        if (state->chains.count(tj.text) > 0 && !IsMemberName(toks, j)) {
          tainted.emplace_back(tj.text, on_left);
        }
      }
      *lit = number && !ident;
    };
    scan(left, true, &lit_left);
    scan(rhs, false, &lit_right);
    for (const auto& [name, on_left] : tainted) {
      if (guard || (on_left ? lit_right : lit_left)) {
        state->sanitized.insert(name);
      }
    }
  }
}

void EmitTrust(const TuFacts& file, int line, std::string message,
               std::vector<Finding>& out) {
  if (FactsTable::IsAllowed(file, line, "trust")) return;
  out.push_back(
      {file.path, line, "trust", Severity::kError, std::move(message)});
}

const char kAdvice[] =
    "; range-check it against a declared guard, pass it through a declared "
    "sanitizer (tools/manic_lint/trust.txt), or clamp it first";

// Sink S1: tainted subscript index. '%' inside the index is the sanctioned
// wrap idiom (`shards_[link % shards_.size()]`) and suppresses the sink.
void SinkSubscript(const TuFacts& file, const TrustSpec& spec,
                   const TaintState& state, bool boundary,
                   std::vector<Finding>& out) {
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 1; i < toks.size(); ++i) {
    if (!IsPunct(toks[i], "[")) continue;
    const Token& prev = toks[i - 1];
    const bool subscript =
        IsIdent(prev) || IsPunct(prev, "]") || IsPunct(prev, ")");
    if (!subscript) continue;  // lambda captures, attributes, array decls
    const std::size_t close = MatchClose(toks, i);
    bool modulo = false;
    for (std::size_t j = i + 1; j < close; ++j) {
      if (IsPunct(toks[j], "%")) modulo = true;
    }
    if (modulo) continue;
    const std::string chain =
        RangeTaint(toks, i + 1, close, spec, state, boundary);
    if (chain.empty()) continue;
    EmitTrust(file, toks[i].line,
              "untrusted value indexes a container [flow: " + chain +
                  " -> subscript]" + kAdvice,
              out);
  }
}

// Sink S2: tainted allocation size (`resize`, `reserve`; `new T[n]` falls
// out of S1 because the size expression is itself a subscript).
void SinkAllocSize(const TuFacts& file, const TrustSpec& spec,
                   const TaintState& state, bool boundary,
                   std::vector<Finding>& out) {
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!IsCallHead(toks, i)) continue;
    const std::string_view name = toks[i].text;
    if (name != "resize" && name != "reserve") continue;
    const std::size_t close = MatchClose(toks, i + 1);
    const std::string chain =
        RangeTaint(toks, i + 2, close, spec, state, boundary);
    if (chain.empty()) continue;
    EmitTrust(file, toks[i].line,
              "untrusted value sizes an allocation ('" + std::string(name) +
                  "') [flow: " + chain + " -> " + std::string(name) + "]" +
                  kAdvice,
              out);
  }
}

// Sink S3: tainted loop bound — a relational comparison inside a for/while
// header whose carrier no guard or literal ever checked. (A comparison
// against a literal or guard sanitizes the variable file-wide, so this only
// fires on genuinely unchecked bounds like `while (closed < hostile_day)`.)
void SinkLoopBound(const TuFacts& file, const TrustSpec& spec,
                   const TaintState& state, bool boundary,
                   std::vector<Finding>& out) {
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsIdent(toks[i]) ||
        (toks[i].text != "for" && toks[i].text != "while")) {
      continue;
    }
    if (!IsPunct(toks[i + 1], "(")) continue;
    const std::size_t close = MatchClose(toks, i + 1);
    for (std::size_t k = i + 2; k < close; ++k) {
      std::size_t right = 0;
      if (!RelationalAt(toks, k, &right)) continue;
      const Operand left = OperandLeft(toks, k);
      const Operand rhs = OperandRight(toks, right);
      std::string chain =
          RangeTaint(toks, left.begin, left.end, spec, state, boundary);
      if (chain.empty()) {
        chain = RangeTaint(toks, rhs.begin, rhs.end, spec, state, boundary);
      }
      if (chain.empty()) continue;
      EmitTrust(file, toks[k].line,
                "untrusted value bounds a loop [flow: " + chain +
                    " -> loop bound]" + kAdvice,
                out);
    }
  }
}

// Sink S4: tainted value narrowed by static_cast to a type that cannot hold
// the wire range (the DecodeQuality u32 -> int bug class).
void SinkNarrowCast(const TuFacts& file, const TrustSpec& spec,
                    const TaintState& state, bool boundary,
                    std::vector<Finding>& out) {
  static const std::set<std::string, std::less<>> kNarrow = {
      "int",     "short",   "char",    "int8_t", "int16_t",
      "int32_t", "uint8_t", "uint16_t"};
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!IsIdent(toks[i]) || toks[i].text != "static_cast") continue;
    if (!IsPunct(toks[i + 1], "<")) continue;
    const std::size_t past_angles = SkipAngles(toks, i + 1);
    std::string narrow_type;
    for (std::size_t j = i + 2; j + 1 < past_angles; ++j) {
      if (IsIdent(toks[j]) && kNarrow.count(toks[j].text) > 0) {
        narrow_type = toks[j].text;
        break;
      }
    }
    if (narrow_type.empty()) continue;
    if (past_angles >= toks.size() || !IsPunct(toks[past_angles], "(")) {
      continue;
    }
    const std::size_t close = MatchClose(toks, past_angles);
    const std::string chain =
        RangeTaint(toks, past_angles + 1, close, spec, state, boundary);
    if (chain.empty()) continue;
    // A literal bitmask inside the operand bounds the value by construction:
    // `static_cast<char>((v >> (8 * i)) & 0xFF)` is the byte-extraction
    // idiom, not a truncation hazard. ('&&' lexes as two '&' tokens, but a
    // number never follows the second one inside a cast operand.)
    bool masked = false;
    for (std::size_t j = past_angles + 1; j + 1 < close; ++j) {
      if (IsPunct(toks[j], "&") && toks[j + 1].kind == TokKind::kNumber) {
        masked = true;
        break;
      }
    }
    if (masked) continue;
    EmitTrust(file, toks[i].line,
              "untrusted value narrows through static_cast<" + narrow_type +
                  "> [flow: " + chain + " -> static_cast<" + narrow_type +
                  ">]" + kAdvice,
              out);
  }
}

// Sink S5: tainted value scaled by a declared time constant — the hostile
// day near INT64_MAX multiplied by kSecPerDay overflows signed arithmetic.
void SinkTimeScale(const TuFacts& file, const TrustSpec& spec,
                   const TaintState& state, bool boundary,
                   std::vector<Finding>& out) {
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t k = 1; k + 1 < toks.size(); ++k) {
    if (!IsPunct(toks[k], "*")) continue;
    const Token& prev = toks[k - 1];
    // Binary multiply: something value-like on the left (rules out derefs
    // and `Type* ptr` almost-always-uppercase declarations cheaply — a
    // false pair still needs a time-const AND a taint carrier to fire).
    if (!(IsIdent(prev) || prev.kind == TokKind::kNumber ||
          IsPunct(prev, ")") || IsPunct(prev, "]"))) {
      continue;
    }
    // Atoms: the qualified-identifier runs touching the operator.
    const auto atom_ident_indices = [&](std::size_t from, int dir) {
      std::vector<std::size_t> idents;
      std::size_t j = from;
      for (int n = 0; n < 8; ++n) {
        if (j >= toks.size()) break;
        const Token& t = toks[j];
        if (IsIdent(t)) {
          idents.push_back(j);
        } else if (!(t.kind == TokKind::kNumber || IsPunct(t, ":") ||
                     IsPunct(t, "."))) {
          break;
        }
        if (dir < 0 && j == 0) break;
        j = (dir < 0) ? j - 1 : j + 1;
      }
      return idents;
    };
    const std::vector<std::size_t> left = atom_ident_indices(k - 1, -1);
    const std::vector<std::size_t> right = atom_ident_indices(k + 1, +1);
    const auto has_time_const = [&](const std::vector<std::size_t>& side) {
      return std::any_of(side.begin(), side.end(), [&](std::size_t j) {
        return spec.time_consts.count(toks[j].text) > 0;
      });
    };
    const auto taint_of = [&](const std::vector<std::size_t>& side) {
      for (std::size_t j : side) {
        const std::string c = TaintAt(toks, j, spec, state, boundary);
        if (!c.empty()) return c;
      }
      return std::string();
    };
    std::string chain;
    if (has_time_const(left)) chain = taint_of(right);
    else if (has_time_const(right)) chain = taint_of(left);
    if (chain.empty()) continue;
    EmitTrust(file, toks[k].line,
              "untrusted value scales a declared time constant [flow: " +
                  chain + " -> time arithmetic]" + kAdvice,
              out);
  }
}

void CheckFileTrust(const TuFacts& file, const TrustSpec& spec,
                    std::vector<Finding>& out) {
  const bool boundary = spec.InBoundary(file.path);
  TaintState state;
  SeedTaints(file, spec, &state);
  if (state.chains.empty() && !boundary) return;
  // Fixpoint: propagate through assignments, recomputing the sanitized set
  // each round so cleared variables stop carrying taint forward.
  for (int round = 0; round < 8; ++round) {
    ComputeSanitized(file, spec, &state);
    if (!PropagateOnce(file, spec, &state, boundary)) break;
  }
  ComputeSanitized(file, spec, &state);
  SinkSubscript(file, spec, state, boundary, out);
  SinkAllocSize(file, spec, state, boundary, out);
  SinkLoopBound(file, spec, state, boundary, out);
  SinkNarrowCast(file, spec, state, boundary, out);
  SinkTimeScale(file, spec, state, boundary, out);
}

// ---- hot-path pass ---------------------------------------------------------

const std::set<std::string, std::less<>>& HotAllocWords() {
  static const std::set<std::string, std::less<>> kWords = {
      "new",        "malloc",      "calloc",  "realloc",    "strdup",
      "push_back",  "emplace_back", "emplace", "emplace_front",
      "push_front", "insert",      "resize",  "reserve",    "assign",
      "append",     "to_string",   "make_unique", "make_shared"};
  return kWords;
}

const std::set<std::string, std::less<>>& HotLockWords() {
  static const std::set<std::string, std::less<>> kWords = {
      "mutex",       "lock_guard", "unique_lock", "scoped_lock",
      "shared_lock", "condition_variable", "Mutex", "MutexLock",
      "pthread_mutex_lock"};
  return kWords;
}

const std::set<std::string, std::less<>>& HotSyscallWords() {
  static const std::set<std::string, std::less<>> kWords = {
      "fopen",  "fclose", "fread",  "fwrite",   "fflush",   "fprintf",
      "printf", "fputs",  "fputc",  "fgets",    "puts",     "fscanf",
      "read",   "write",  "pread",  "pwrite",   "recv",     "send",
      "recvfrom", "sendto", "poll", "select",   "accept",   "connect",
      "socket", "bind",   "listen", "sleep",    "usleep",   "nanosleep",
      "getenv", "system", "ioctl"};
  return kWords;
}

void EmitHotPath(const TuFacts& file, int line, std::string message,
                 std::vector<Finding>& out) {
  if (FactsTable::IsAllowed(file, line, "hot-path")) return;
  out.push_back(
      {file.path, line, "hot-path", Severity::kError, std::move(message)});
}

void CheckFileHotPath(const TuFacts& file, std::vector<Finding>& out) {
  if (file.hot_markers.empty()) return;
  std::vector<std::pair<int, int>> regions;
  int open_line = -1;
  for (const auto& [line, is_begin] : file.hot_markers) {
    if (is_begin) {
      if (open_line >= 0) {
        EmitHotPath(file, line,
                    "hot-path(begin) while the region opened at line " +
                        std::to_string(open_line) +
                        " is still open (missing hot-path(end))",
                    out);
      }
      open_line = line;
    } else {
      if (open_line < 0) {
        EmitHotPath(file, line, "hot-path(end) without a matching begin",
                    out);
      } else {
        regions.emplace_back(open_line, line);
        open_line = -1;
      }
    }
  }
  if (open_line >= 0) {
    EmitHotPath(file, open_line,
                "hot-path(begin) without a matching end before end of file",
                out);
  }
  if (regions.empty()) return;
  for (const Token& t : file.tokens) {
    if (t.kind != TokKind::kIdent) continue;
    const char* verb = nullptr;
    if (HotAllocWords().count(t.text) > 0) verb = "allocates on the heap";
    else if (HotLockWords().count(t.text) > 0) verb = "acquires a lock";
    else if (HotSyscallWords().count(t.text) > 0)
      verb = "performs I/O or a syscall";
    if (verb == nullptr) continue;
    for (const auto& [begin, end] : regions) {
      if (t.line > begin && t.line < end) {
        EmitHotPath(file, t.line,
                    "'" + t.text + "' " + verb +
                        " inside the hot-path region opened at line " +
                        std::to_string(begin) +
                        "; hoist it out of the per-sample path or justify "
                        "with `// manic-lint: allow(hot-path)`",
                    out);
        break;
      }
    }
  }
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

}  // namespace

bool TrustSpec::InBoundary(std::string_view path) const {
  return std::any_of(boundaries.begin(), boundaries.end(),
                     [&](const std::string& b) {
                       return path.find(b) != std::string_view::npos;
                     });
}

bool TrustSpec::IsSanitizer(std::string_view name) const {
  if (sanitizers.count(name) > 0) return true;
  return std::any_of(sanitizer_prefixes.begin(), sanitizer_prefixes.end(),
                     [&](const std::string& p) {
                       return name.size() > p.size() &&
                              name.compare(0, p.size(), p) == 0;
                     });
}

TrustSpec ParseTrustSpec(std::string_view text, std::string* error) {
  TrustSpec spec;
  std::istringstream in{std::string(text)};
  std::string line;
  int lineno = 0;
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = "trust spec line " + std::to_string(lineno) + ": " + what;
    }
    return TrustSpec{};
  };
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string word, name;
    if (!(fields >> word)) continue;
    if (!(fields >> name)) {
      return fail("directive '" + word + "' needs a name argument");
    }
    if (word == "source") {
      spec.sources.insert(name);
    } else if (word == "taint") {
      spec.taints.insert(name);
    } else if (word == "field") {
      spec.fields.insert(name);
    } else if (word == "boundary") {
      spec.boundaries.push_back(name);
    } else if (word == "sanitizer") {
      if (name.size() > 1 && name.back() == '*') {
        name.pop_back();
        spec.sanitizer_prefixes.push_back(name);
      } else {
        spec.sanitizers.insert(name);
      }
    } else if (word == "guard") {
      spec.guards.insert(name);
    } else if (word == "time-const") {
      spec.time_consts.insert(name);
    } else {
      return fail("unrecognized directive '" + word + "'");
    }
  }
  spec.loaded = !spec.sources.empty() || !spec.taints.empty() ||
                !spec.fields.empty();
  if (!spec.loaded && error != nullptr && error->empty()) {
    *error = "trust spec declares no sources, taints, or fields";
  }
  return spec;
}

TrustSpec LoadTrustSpec(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot read trust spec '" + path + "'";
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseTrustSpec(buf.str(), error);
}

void RunTrustPass(const FactsTable& table, const TrustSpec& spec,
                  std::vector<Finding>& out) {
  if (!spec.loaded) return;
  std::vector<Finding> found;
  for (const TuFacts& file : table.Files()) {
    CheckFileTrust(file, spec, found);
  }
  SortUnique(found, out);
}

void RunHotPathPass(const FactsTable& table, std::vector<Finding>& out) {
  std::vector<Finding> found;
  for (const TuFacts& file : table.Files()) {
    CheckFileHotPath(file, found);
  }
  SortUnique(found, out);
}

}  // namespace manic::lint
