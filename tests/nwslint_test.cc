// Self-tests for tools/nwslint.  The rule checks are driven in-process over
// fixture snippets in tools/nwslint/testdata/: each `// expect: <rule>`
// marker inside a snippet names a rule that must fire on the next
// non-marker line, and any unexpected finding fails the test, so both
// false negatives and false positives are caught.  The suite also locks
// the config/schema parsers' error handling and — the real guard — lints
// the actual repository tree with the actual scripts/nwslint.conf and
// scripts/obs_schema.txt, asserting zero findings.
#include "lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace {

using nws::lint::Config;
using nws::lint::Finding;
using nws::lint::StatusFns;

// A self-contained layer DAG + obs schema sized for the fixtures, so the
// fixtures stay meaningful even as the real scripts/ files evolve.
constexpr const char* kConf = R"(# fixture config
layer common:
layer sim: common
layer daos: common sim
layer fdb: common daos sim
envvar NWS_
)";

constexpr const char* kSchema = R"(# fixture schema
category io
category daos
span io io
span kv_put daos
span kv_get daos
metric daos.kv_puts counter
metric net.peak_concurrent_flows gauge
)";

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open fixture " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Parses `// expect: <rule>` markers: each one predicts a finding of that
// rule on the next line that is not itself a marker.
std::vector<std::pair<int, std::string>> expected_findings(const std::string& content) {
  std::vector<std::string> lines;
  std::stringstream in(content);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);

  const auto marker_rule = [](const std::string& text) -> std::string {
    const std::size_t at = text.find("// expect:");
    if (at == std::string::npos) return {};
    std::istringstream rest(text.substr(at + 10));
    std::string rule;
    rest >> rule;
    return rule;
  };

  std::vector<std::pair<int, std::string>> expected;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string rule = marker_rule(lines[i]);
    if (rule.empty()) continue;
    std::size_t target = i + 1;
    while (target < lines.size() && !marker_rule(lines[target]).empty()) ++target;
    expected.emplace_back(static_cast<int>(target) + 1, rule);  // 1-indexed
  }
  std::sort(expected.begin(), expected.end());
  return expected;
}

// Lints one fixture as if it sat at `rel_path` in the repo, comparing the
// (line, rule) set of findings against the snippet's expect markers.
void check_fixture(const std::string& snippet, const std::string& rel_path) {
  const std::string content = read_file(std::string(NWSLINT_TESTDATA_DIR) + "/" + snippet);
  const Config config = nws::lint::parse_config(kConf, kSchema);

  StatusFns fns;
  nws::lint::collect_status_fns(content, fns);
  const std::vector<Finding> findings = nws::lint::lint_file(rel_path, content, config, fns);

  std::vector<std::pair<int, std::string>> actual;
  actual.reserve(findings.size());
  for (const Finding& f : findings) actual.emplace_back(f.line, f.rule);
  std::sort(actual.begin(), actual.end());

  const std::vector<std::pair<int, std::string>> expected = expected_findings(content);
  if (actual != expected) {
    std::string report = snippet + " findings diverge from its expect markers.\nActual:\n";
    for (const Finding& f : findings) report += "  " + f.to_string() + "\n";
    report += "Expected:\n";
    for (const auto& e : expected) {
      report += "  line " + std::to_string(e.first) + ": [" + e.second + "]\n";
    }
    FAIL() << report;
  }
}

TEST(NwslintFixtures, Determinism) {
  check_fixture("bad_determinism.snippet", "src/sim/bad_determinism.cc");
}

TEST(NwslintFixtures, Layering) {
  check_fixture("bad_layering.snippet", "src/sim/bad_layering.cc");
}

TEST(NwslintFixtures, ObsSchema) {
  check_fixture("bad_obs.snippet", "src/daos/bad_obs.cc");
}

TEST(NwslintFixtures, StatusDiscard) {
  check_fixture("bad_status.snippet", "src/fdb/bad_status.cc");
}

TEST(NwslintFixtures, CoroutineTernary) {
  check_fixture("bad_coroutine_ternary.snippet", "src/sim/bad_coroutine_ternary.cc");
}

TEST(NwslintFixtures, WellFormedSuppressionsSilenceEverything) {
  check_fixture("suppressed_clean.snippet", "src/sim/suppressed_clean.cc");
}

TEST(NwslintFixtures, MalformedSuppressionsAreFindingsAndSuppressNothing) {
  check_fixture("bad_suppression.snippet", "src/sim/bad_suppression.cc");
}

TEST(NwslintRules, ObsSchemaSkippedInTests) {
  // tests/ may poke at unregistered names (they fabricate metrics all the
  // time); only src/ and bench/ emit production telemetry.
  const Config config = nws::lint::parse_config(kConf, kSchema);
  const std::string content = "void f(M& m) { m.counter(\"not.registered\", 1.0); }\n";
  StatusFns fns;
  EXPECT_TRUE(nws::lint::lint_file("tests/x_test.cc", content, config, fns).empty());
  EXPECT_EQ(nws::lint::lint_file("src/daos/x.cc", content, config, fns).size(), 1u);
}

TEST(NwslintRules, BenchCodeSitsAboveTheLayerDag) {
  const Config config = nws::lint::parse_config(kConf, kSchema);
  const std::string content = "#include \"daos/client.h\"\n#include \"sim/time.h\"\n";
  StatusFns fns;
  EXPECT_TRUE(nws::lint::lint_file("bench/x.cc", content, config, fns).empty());
}

TEST(NwslintRules, UndeclaredSrcLayerIsAFinding) {
  const Config config = nws::lint::parse_config(kConf, kSchema);
  StatusFns fns;
  const std::vector<Finding> findings =
      nws::lint::lint_file("src/mystery/x.cc", "int x;\n", config, fns);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layering");
}

TEST(NwslintConfig, CycleInLayerDagIsRejected) {
  EXPECT_THROW(nws::lint::parse_config("layer a: b\nlayer b: a\n", kSchema), std::runtime_error);
}

TEST(NwslintConfig, UndeclaredDependencyIsRejected) {
  EXPECT_THROW(nws::lint::parse_config("layer a: ghost\n", kSchema), std::runtime_error);
}

TEST(NwslintConfig, DuplicateLayerIsRejected) {
  EXPECT_THROW(nws::lint::parse_config("layer a:\nlayer a:\n", kSchema), std::runtime_error);
}

TEST(NwslintConfig, UnknownDirectiveIsRejected) {
  EXPECT_THROW(nws::lint::parse_config("frobnicate x\n", kSchema), std::runtime_error);
}

TEST(NwslintSchema, DuplicateSpanIsRejected) {
  EXPECT_THROW(
      nws::lint::parse_config(kConf, "category io\nspan io io\nspan io io\n"),
      std::runtime_error);
}

TEST(NwslintSchema, UndeclaredCategoryIsRejected) {
  EXPECT_THROW(nws::lint::parse_config(kConf, "span orphan nowhere\n"), std::runtime_error);
}

TEST(NwslintSchema, UnknownMetricKindIsRejected) {
  EXPECT_THROW(nws::lint::parse_config(kConf, "metric x.y summary\n"), std::runtime_error);
}

TEST(NwslintSchema, DuplicateMetricIsRejected) {
  EXPECT_THROW(
      nws::lint::parse_config(kConf, "metric x.y counter\nmetric x.y counter\n"),
      std::runtime_error);
}

// The guard the whole tool exists for: the real tree, linted with the real
// config, is clean.  A rule regression, a new violation, or a stale
// scripts/obs_schema.txt all fail here before they fail in CI.
TEST(NwslintTree, RepositoryIsClean) {
  const std::string root = NWSLINT_SOURCE_DIR;
  const Config config =
      nws::lint::load_config(root + "/scripts/nwslint.conf", root + "/scripts/obs_schema.txt");
  const std::vector<Finding> findings =
      nws::lint::lint_tree(root, {"src", "bench", "tests", "examples", "tools"}, config);
  std::string report;
  for (const Finding& f : findings) report += f.to_string() + "\n";
  EXPECT_TRUE(findings.empty()) << report;
}

}  // namespace
