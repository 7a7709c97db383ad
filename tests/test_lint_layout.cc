// Tests for manic-lint's phase-6 layout passes (layout.h): the
// `false-sharing` pass and the `alloc-scale` scale-loop allocation pass.
// Fixtures live under tests/lint_fixtures/layout/; each is re-rooted at a
// synthetic logical path. The tree test runs the whole analyzer over the
// real tree with the committed layout.txt and must be clean. Byte budgets
// and wire pins are static_asserts in src/, tested by tests/compile_fail/.
//
// MANIC_SOURCE_DIR is injected by tests/CMakeLists.txt.
#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "concurrency.h"
#include "facts.h"
#include "graph.h"
#include "layout.h"
#include "lint.h"
#include "trust.h"
#include "units.h"

namespace manic::lint {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(MANIC_SOURCE_DIR) +
                           "/tests/lint_fixtures/layout/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

FactsTable TableOf(const std::string& name, const std::string& logical_path) {
  FactsTable table;
  table.Add(ExtractFacts(ReadFixture(name), logical_path));
  return table;
}

LayoutSpec SpecOf(const std::string& text) {
  std::string error;
  LayoutSpec spec = ParseLayoutSpec(text, &error);
  EXPECT_TRUE(spec.loaded) << error;
  return spec;
}

std::vector<Finding> OfRule(const std::vector<Finding>& findings,
                            const std::string& rule) {
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

std::vector<int> LinesOf(const std::vector<Finding>& findings) {
  std::vector<int> lines;
  for (const Finding& f : findings) lines.push_back(f.line);
  return lines;
}

// ---- spec parsing ----------------------------------------------------------

TEST(LayoutSpecParse, EveryDirectiveParses) {
  const LayoutSpec spec = SpecOf(
      "# comment\n"
      "same-line Ring::a_ Ring::b_\n"
      "scale-axis links* samples\n"
      "arena pool_ bump_alloc\n");
  ASSERT_EQ(spec.same_line.count("Ring::a_"), 1u);
  ASSERT_EQ(spec.same_line.count("Ring::b_"), 1u);
  EXPECT_EQ(spec.same_line.at("Ring::a_"), spec.same_line.at("Ring::b_"));
  ASSERT_EQ(spec.scale_axes.size(), 2u);
  EXPECT_EQ(spec.scale_axes[0], "links*");
  EXPECT_EQ(spec.arena.count("pool_"), 1u);
  EXPECT_EQ(spec.arena.count("bump_alloc"), 1u);
}

TEST(LayoutSpecParse, MalformedLineFailsLoudly) {
  // Budgets, padding and wire pins moved into static_asserts, so their
  // retired directives fail loudly instead of silently checking nothing.
  for (const char* line :
       {"same-line Ring::a_\n", "same-line a_ b_\n", "type vector 24 8\n",
        "budget Point 16\n", "pad-threshold 8\n",
        "wire Sample 21 t:8 link:4 vp:4 kind:1 value:4\n",
        "multi-thread Queue\n"}) {
    std::string error;
    const LayoutSpec spec =
        ParseLayoutSpec(std::string("scale-axis links*\n") + line, &error);
    EXPECT_FALSE(spec.loaded) << line;
    EXPECT_NE(error.find("line 2: "), std::string::npos) << error;
  }
}

TEST(LayoutSpecParse, MissingFileFailsLoudly) {
  std::string error;
  const LayoutSpec spec =
      LoadLayoutSpec("/nonexistent/layout.txt", &error);
  EXPECT_FALSE(spec.loaded);
  EXPECT_FALSE(error.empty());
}

// ---- false-sharing pass over fixtures -------------------------------------

ConcurrencySpec RolesOf(const std::string& text) {
  std::string error;
  ConcurrencySpec roles = ParseConcurrencySpec(text, &error);
  EXPECT_TRUE(roles.loaded) << error;
  return roles;
}

TEST(LayoutPass, FalseSharingAlignasAndSameLineViaRoles) {
  const LayoutSpec spec = SpecOf("same-line Paired::count_ Paired::shadow_\n");
  const ConcurrencySpec roles = RolesOf(
      "role producer = Queue::Push Isolated::Push Paired::Push\n"
      "role consumer = Queue::Pop Isolated::Pop Paired::Pop\n");
  const FactsTable table =
      TableOf("false_share.cc", "src/serve/false_share.cc");
  std::vector<Finding> findings;
  RunFalseSharingPass(table, spec, &roles, findings);
  // Only Queue::head_ fires: Isolated is alignas(64)-padded and Paired's
  // cohabitation is declared same-line.
  const std::vector<Finding> sharing = OfRule(findings, "false-sharing");
  ASSERT_EQ(LinesOf(sharing), (std::vector<int>{17}))
      << RenderText(findings);
  EXPECT_EQ(sharing[0].severity, Severity::kError);
  EXPECT_NE(sharing[0].message.find(
                "atomic field 'Queue::head_' shares a 64-byte cache line "
                "with scratch_, tail_cache_"),
            std::string::npos)
      << sharing[0].message;
  EXPECT_NE(sharing[0].message.find("alignas(64)"), std::string::npos)
      << sharing[0].message;
}

TEST(LayoutPass, FalseSharingNeedsTwoRoles) {
  // One role reaching every struct makes none of them multi-role.
  const LayoutSpec spec = SpecOf("same-line Paired::count_ Paired::shadow_\n");
  const ConcurrencySpec roles = RolesOf(
      "role producer = Queue::Push Queue::Pop\n");
  const FactsTable table =
      TableOf("false_share.cc", "src/serve/false_share.cc");
  std::vector<Finding> findings;
  RunFalseSharingPass(table, spec, &roles, findings);
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

TEST(LayoutPass, FalseSharingViaConcurrencyRoles) {
  // Ring becomes multi-role purely through the concurrency spec's thread
  // roles, the integration the real tree relies on for structs like
  // serve::IngestShard.
  const LayoutSpec spec = SpecOf("scale-axis links*\n");
  const ConcurrencySpec roles = RolesOf(
      "role producer = Ring::Push\n"
      "role consumer = Ring::Pop\n");
  const FactsTable table =
      TableOf("roles_share.cc", "src/serve/roles_share.cc");
  std::vector<Finding> findings;
  RunFalseSharingPass(table, spec, &roles, findings);
  const std::vector<Finding> sharing = OfRule(findings, "false-sharing");
  ASSERT_EQ(LinesOf(sharing), (std::vector<int>{15}))
      << RenderText(findings);
  EXPECT_NE(sharing[0].message.find("'Ring::w_'"), std::string::npos)
      << sharing[0].message;
  EXPECT_NE(sharing[0].message.find("pad_, r_cache_"), std::string::npos)
      << sharing[0].message;
}

// ---- alloc pass over fixtures ----------------------------------------------

TEST(AllocPass, ScaleLoopAllocationsFire) {
  const LayoutSpec spec = SpecOf("scale-axis links*\n");
  const FactsTable table =
      TableOf("alloc_loop.cc", "src/serve/alloc_loop.cc");
  std::vector<Finding> findings;
  RunAllocPass(table, spec, findings);
  // insert (node growth), make_unique<Item> (templated alloc callee), and
  // raw `new` fire; push_back into the flat `out` vector is amortized tail
  // growth and stays silent.
  ASSERT_EQ(LinesOf(findings), (std::vector<int>{20, 21, 22}))
      << RenderText(findings);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "alloc-scale");
    EXPECT_EQ(f.severity, Severity::kError);
    EXPECT_NE(f.message.find("scale axis 'links'"), std::string::npos)
        << f.message;
    EXPECT_NE(f.message.find("[flow: for (... : links) at line 19 -> "),
              std::string::npos)
        << f.message;
  }
  EXPECT_NE(findings[0].message.find("node-based growth 'table.insert(...)'"),
            std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[1].message.find(
                "per-element heap allocation 'make_unique(...)'"),
            std::string::npos)
      << findings[1].message;
  EXPECT_NE(findings[2].message.find("per-element `new`"), std::string::npos)
      << findings[2].message;
}

TEST(AllocPass, ArenaPathsAreExempt) {
  const LayoutSpec spec =
      SpecOf("scale-axis links*\narena table make_unique\n");
  const FactsTable table =
      TableOf("alloc_loop.cc", "src/serve/alloc_loop.cc");
  std::vector<Finding> findings;
  RunAllocPass(table, spec, findings);
  // Only the raw `new` is left: the map receiver and the callee are both
  // declared arena paths.
  ASSERT_EQ(LinesOf(findings), (std::vector<int>{22}))
      << RenderText(findings);
}

TEST(AllocPass, LoopsOverOtherCollectionsAreSilent) {
  const LayoutSpec spec = SpecOf("scale-axis routers*\n");
  const FactsTable table =
      TableOf("alloc_loop.cc", "src/serve/alloc_loop.cc");
  std::vector<Finding> findings;
  RunAllocPass(table, spec, findings);
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

// ---- suppression -----------------------------------------------------------

TEST(LayoutSuppression, FamilyFormAllowSilencesAndIsAudited) {
  const LayoutSpec spec = SpecOf("scale-axis links*\n");
  FactsTable table;
  TuFacts facts =
      ExtractFacts(ReadFixture("suppressed.cc"), "src/serve/suppressed.cc");
  // The family form lands in the audit under both names.
  int rule_allows = 0, family_allows = 0;
  for (const auto& [line, rules] : facts.allow) {
    rule_allows += static_cast<int>(rules.count("alloc-scale"));
    family_allows += static_cast<int>(rules.count("layout"));
  }
  EXPECT_EQ(rule_allows, 1);
  EXPECT_EQ(family_allows, 1);
  table.Add(std::move(facts));
  std::vector<Finding> findings;
  RunAllocPass(table, spec, findings);
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

// ---- the real tree ---------------------------------------------------------

TEST(LayoutTree, RealTreeIsCleanUnderAllPasses) {
  const std::string root(MANIC_SOURCE_DIR);
  std::string layers_error, units_error, trust_error, conc_error,
      layout_error;
  const LayerManifest manifest = LoadLayerManifest(
      root + "/tools/manic_lint/layers.txt", &layers_error);
  ASSERT_TRUE(manifest.loaded) << layers_error;
  const UnitsSpec units =
      LoadUnitsSpec(root + "/tools/manic_lint/units.txt", &units_error);
  ASSERT_TRUE(units.loaded) << units_error;
  const TrustSpec trust =
      LoadTrustSpec(root + "/tools/manic_lint/trust.txt", &trust_error);
  ASSERT_TRUE(trust.loaded) << trust_error;
  const ConcurrencySpec concurrency = LoadConcurrencySpec(
      root + "/tools/manic_lint/concurrency.txt", &conc_error);
  ASSERT_TRUE(concurrency.loaded) << conc_error;
  const LayoutSpec layout = LoadLayoutSpec(
      root + "/tools/manic_lint/layout.txt", &layout_error);
  ASSERT_TRUE(layout.loaded) << layout_error;
  const TreeAnalysis analysis =
      AnalyzeTree({root + "/src", root + "/bench", root + "/tests",
                   root + "/examples"},
                  &manifest, &units, &trust, &concurrency, &layout);
  ASSERT_FALSE(analysis.read_failure);
  ASSERT_GT(analysis.files_scanned, 50);
  EXPECT_EQ(CountErrors(analysis.findings), 0)
      << RenderText(analysis.findings);
  EXPECT_EQ(CountWarnings(analysis.findings), 0)
      << RenderText(analysis.findings);
  // The tree carries suppressions in five families; each must stay visible
  // in the audit map the JSON report publishes.
  for (const char* family :
       {"alloc-scale", "hot-path", "layout", "trust", "units"}) {
    const auto it = analysis.suppressions.find(family);
    ASSERT_NE(it, analysis.suppressions.end()) << family;
    EXPECT_GE(it->second, 1) << family;
  }
}

// ---- rule catalog ----------------------------------------------------------

TEST(RuleCatalogTier6, LayoutFamilyIsCataloged) {
  const std::vector<RuleInfo>& catalog = RuleCatalog();
  EXPECT_EQ(catalog.size(), 20u);
  const auto find = [&](std::string_view rule) {
    return std::find_if(
        catalog.begin(), catalog.end(),
        [&](const RuleInfo& info) { return info.rule == rule; });
  };
  for (const char* rule : {"false-sharing", "alloc-scale"}) {
    const auto it = find(rule);
    ASSERT_NE(it, catalog.end()) << rule;
    EXPECT_EQ(it->family, "layout") << rule;
  }
  // The compiler proves these now (static_assert, [[nodiscard]]).
  for (const char* rule :
       {"layout-budget", "layout-pad", "wire-abi", "must-check"}) {
    EXPECT_EQ(find(rule), catalog.end()) << rule;
  }
}

TEST(RuleCatalogTier6, JsonPayloadShape) {
  const std::string json = RenderRuleCatalogJson();
  EXPECT_EQ(json.rfind("{\"schema_version\":5,\"rules\":[", 0), 0u) << json;
  EXPECT_NE(json.find("\"rule\":\"false-sharing\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"family\":\"layout\""), std::string::npos) << json;
}

}  // namespace
}  // namespace manic::lint
