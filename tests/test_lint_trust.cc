// Tests for manic-lint's phase-4 trust-boundary passes (trust.h): the
// `trust` taint pass (source->sink flows with sanitizer/guard laundering)
// and the `hot-path` contract pass (allocation/lock/syscall identifiers
// inside marked regions). Discarded must-check results are compile errors
// instead ([[nodiscard]] under -Werror=unused-result; tests/compile_fail/). Fixtures live under
// tests/lint_fixtures/trust/; each is re-rooted at a synthetic logical path
// because boundary scoping is path-driven. The final tests run the whole
// analyzer over the real tree with the committed trust.txt and require a
// clean report.
//
// MANIC_SOURCE_DIR is injected by tests/CMakeLists.txt.
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "facts.h"
#include "graph.h"
#include "lint.h"
#include "trust.h"
#include "units.h"

namespace manic::lint {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(MANIC_SOURCE_DIR) +
                           "/tests/lint_fixtures/trust/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// A self-contained spec exercising every directive; fixture files are
// written against these names.
TrustSpec FixtureSpec() {
  std::string error;
  TrustSpec spec = ParseTrustSpec(
      "source GetU32\n"
      "source GetI64\n"
      "source atoi\n"
      "taint argv\n"
      "field t\n"
      "boundary src/serve/\n"
      "sanitizer Clamp*\n"
      "guard kMax\n"
      "time-const kSecPerDay\n",
      &error);
  EXPECT_TRUE(spec.loaded) << error;
  return spec;
}

FactsTable TableOf(const std::string& name, const std::string& logical_path) {
  FactsTable table;
  table.Add(ExtractFacts(ReadFixture(name), logical_path));
  return table;
}

std::vector<int> LinesOf(const std::vector<Finding>& findings) {
  std::vector<int> lines;
  for (const Finding& f : findings) lines.push_back(f.line);
  return lines;
}

// ---- spec parsing ----------------------------------------------------------

TEST(TrustSpec, ParsesEveryDirective) {
  const TrustSpec spec = FixtureSpec();
  EXPECT_EQ(spec.sources.size(), 3u);
  EXPECT_EQ(spec.taints.count("argv"), 1u);
  EXPECT_EQ(spec.fields.count("t"), 1u);
  EXPECT_TRUE(spec.InBoundary("src/serve/codec.cc"));
  EXPECT_FALSE(spec.InBoundary("src/sim/network.cc"));
  EXPECT_TRUE(spec.IsSanitizer("ClampDay"));
  EXPECT_FALSE(spec.IsSanitizer("Clamp"));  // prefix needs a longer name
  EXPECT_FALSE(spec.IsSanitizer("Normalize"));
  EXPECT_EQ(spec.guards.count("kMax"), 1u);
  EXPECT_EQ(spec.time_consts.count("kSecPerDay"), 1u);
}

TEST(TrustSpec, MalformedLineReportsAndUnloads) {
  // The must-check directives are retired: [[nodiscard]] and
  // -Werror=unused-result do that job, so a leftover line is an error.
  for (const char* line :
       {"bogus name\n", "nodiscard SubmitSummary\n",
        "nodiscard-fn Consume\n"}) {
    std::string error;
    const TrustSpec spec = ParseTrustSpec(line, &error);
    EXPECT_FALSE(spec.loaded) << line;
    EXPECT_NE(error.find("line 1: unrecognized directive"), std::string::npos)
        << error;
  }
}

TEST(TrustSpec, MissingArgumentReports) {
  std::string error;
  const TrustSpec spec = ParseTrustSpec("source GetU32\nguard\n", &error);
  EXPECT_FALSE(spec.loaded);
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(TrustSpec, UnreadableFileReports) {
  std::string error;
  const TrustSpec spec = LoadTrustSpec("/nonexistent/trust.txt", &error);
  EXPECT_FALSE(spec.loaded);
  EXPECT_NE(error.find("cannot read"), std::string::npos) << error;
}

// ---- trust pass over fixtures ----------------------------------------------

TEST(TrustPass, FlagsHostileDayWalk) {
  const TrustSpec spec = FixtureSpec();
  const FactsTable table = TableOf("day_walk.cc", "src/serve/day_walk.cc");
  std::vector<Finding> findings;
  RunTrustPass(table, spec, findings);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "trust");
    EXPECT_EQ(f.severity, Severity::kError);
  }
  // The unchecked loop bound (15) and the day * kSecPerDay overflow (19).
  ASSERT_EQ(LinesOf(findings), (std::vector<int>{15, 19}))
      << RenderText(findings);
  EXPECT_NE(findings[0].message.find("GetI64(&day)"), std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[1].message.find("time constant"), std::string::npos)
      << findings[1].message;
}

TEST(TrustPass, FlagsUnclampedCountAtEverySink) {
  const TrustSpec spec = FixtureSpec();
  const FactsTable table = TableOf("unclamped.cc", "src/serve/unclamped.cc");
  std::vector<Finding> findings;
  RunTrustPass(table, spec, findings);
  // reserve (13), loop bound (14), narrowing cast (15), subscript (17).
  ASSERT_EQ(LinesOf(findings), (std::vector<int>{13, 14, 15, 17}))
      << RenderText(findings);
  // Every message carries the full flow chain back to the decode call.
  for (const Finding& f : findings) {
    EXPECT_NE(f.message.find("[flow: GetU32(&count)"), std::string::npos)
        << f.message;
  }
}

TEST(TrustPass, SanitizedFlowsStaySilent) {
  const TrustSpec spec = FixtureSpec();
  const FactsTable table = TableOf("sanitized.cc", "src/serve/sanitized.cc");
  std::vector<Finding> findings;
  RunTrustPass(table, spec, findings);
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

TEST(TrustPass, WireFieldTaintsOnlyInsideBoundary) {
  const TrustSpec spec = FixtureSpec();
  std::vector<Finding> inside;
  RunTrustPass(TableOf("field_flow.cc", "src/serve/field_flow.cc"), spec,
               inside);
  ASSERT_EQ(LinesOf(inside), (std::vector<int>{13})) << RenderText(inside);
  EXPECT_NE(inside[0].message.find("s.t (wire field)"), std::string::npos)
      << inside[0].message;
  // The identical file outside the declared boundary is silent: wire-struct
  // fields are only hostile where peers hand them to us.
  std::vector<Finding> outside;
  RunTrustPass(TableOf("field_flow.cc", "src/sim/field_flow.cc"), spec,
               outside);
  EXPECT_TRUE(outside.empty()) << RenderText(outside);
}

TEST(TrustPass, ArgvFlowsThroughAtoiIntoSubscript) {
  const TrustSpec spec = FixtureSpec();
  const FactsTable table = TableOf("argv_flow.cc", "examples/argv_flow.cc");
  std::vector<Finding> findings;
  RunTrustPass(table, spec, findings);
  ASSERT_EQ(LinesOf(findings), (std::vector<int>{8})) << RenderText(findings);
  EXPECT_NE(findings[0].message.find("atoi(...) -> idx"), std::string::npos)
      << findings[0].message;
}

TEST(TrustPass, SuppressionSilencesAndIsAudited) {
  const TrustSpec spec = FixtureSpec();
  TuFacts facts =
      ExtractFacts(ReadFixture("allowed.cc"), "src/serve/allowed.cc");
  int trust_allows = 0;
  for (const auto& [line, rules] : facts.allow) {
    trust_allows += static_cast<int>(rules.count("trust"));
  }
  EXPECT_EQ(trust_allows, 1);
  FactsTable table;
  table.Add(std::move(facts));
  std::vector<Finding> findings;
  RunTrustPass(table, spec, findings);
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

// ---- hot-path pass over fixtures -------------------------------------------

TEST(HotPathPass, FlagsAllocationLockingAndSyscalls) {
  const FactsTable table =
      TableOf("hotpath_bad.cc", "src/serve/hotpath_bad.cc");
  std::vector<Finding> findings;
  RunHotPathPass(table, findings);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "hot-path");
    EXPECT_EQ(f.severity, Severity::kError);
  }
  // push_back (11), fprintf (12), lock_guard + mutex (13); the push_back
  // after hot-path(end) (15) and the file-scope mutex (7) stay silent.
  ASSERT_EQ(LinesOf(findings), (std::vector<int>{11, 12, 13, 13}))
      << RenderText(findings);
  EXPECT_NE(findings[0].message.find("allocates on the heap"),
            std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[1].message.find("I/O or a syscall"), std::string::npos)
      << findings[1].message;
}

TEST(HotPathPass, CleanRegionStaysClean) {
  const FactsTable table =
      TableOf("hotpath_clean.cc", "src/serve/hotpath_clean.cc");
  std::vector<Finding> findings;
  RunHotPathPass(table, findings);
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

TEST(HotPathPass, UnmatchedBeginIsAnError) {
  const FactsTable table =
      TableOf("hotpath_unmatched.cc", "src/serve/hotpath_unmatched.cc");
  std::vector<Finding> findings;
  RunHotPathPass(table, findings);
  ASSERT_EQ(findings.size(), 1u) << RenderText(findings);
  EXPECT_NE(findings[0].message.find("without a matching end"),
            std::string::npos)
      << findings[0].message;
}

TEST(HotPathPass, JustifiedAllowStaysSilent) {
  const FactsTable table =
      TableOf("hotpath_allowed.cc", "src/serve/hotpath_allowed.cc");
  std::vector<Finding> findings;
  RunHotPathPass(table, findings);
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

TEST(HotPathPass, FilesWithoutMarkersAreUntouched) {
  // Allocation-heavy code with no markers must produce nothing: the
  // contract is opt-in per region.
  const FactsTable table = TableOf("unclamped.cc", "src/infer/unclamped.cc");
  std::vector<Finding> findings;
  RunHotPathPass(table, findings);
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

// ---- the real tree ---------------------------------------------------------

TEST(TrustTree, RealTreeIsCleanUnderAllPasses) {
  const std::string root(MANIC_SOURCE_DIR);
  std::string layers_error, units_error, trust_error;
  const LayerManifest manifest = LoadLayerManifest(
      root + "/tools/manic_lint/layers.txt", &layers_error);
  ASSERT_TRUE(manifest.loaded) << layers_error;
  const UnitsSpec units =
      LoadUnitsSpec(root + "/tools/manic_lint/units.txt", &units_error);
  ASSERT_TRUE(units.loaded) << units_error;
  const TrustSpec trust =
      LoadTrustSpec(root + "/tools/manic_lint/trust.txt", &trust_error);
  ASSERT_TRUE(trust.loaded) << trust_error;
  const TreeAnalysis analysis =
      AnalyzeTree({root + "/src", root + "/bench", root + "/tests",
                   root + "/examples"},
                  &manifest, &units, &trust);
  ASSERT_FALSE(analysis.read_failure);
  ASSERT_GT(analysis.files_scanned, 50);
  EXPECT_EQ(CountErrors(analysis.findings), 0)
      << RenderText(analysis.findings);
  EXPECT_EQ(CountWarnings(analysis.findings), 0)
      << RenderText(analysis.findings);
}

TEST(TrustTree, RealTreeCarriesHotPathRegions) {
  // The serving-plane hot paths must actually be fenced: losing the markers
  // would silently disable the contract.
  const std::string root(MANIC_SOURCE_DIR);
  const TreeAnalysis analysis =
      AnalyzeTree({root + "/src/serve"}, nullptr, nullptr, nullptr);
  int marker_files = 0;
  for (const TuFacts& file : analysis.facts.Files()) {
    if (!file.hot_markers.empty()) ++marker_files;
  }
  EXPECT_GE(marker_files, 3) << "hot-path markers missing from src/serve";
}

TEST(TrustTree, JsonReportCarriesSchemaVersion5) {
  const std::string json = RenderJson({}, 3, {{"trust", 1}, {"hot-path", 2}});
  EXPECT_EQ(json.rfind("{\"schema_version\":5,", 0), 0u) << json;
  EXPECT_NE(json.find("\"suppressions\":{\"hot-path\":2,\"trust\":1}"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace manic::lint
