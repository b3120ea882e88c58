/**
 * @file
 * Self-test for tools/glider_lint: each bad fixture must trigger its
 * rule exactly once, the clean fixture must pass every rule, the
 * escape hatches must silence findings, and the mechanical --fix
 * must converge (fixed files re-lint clean).
 *
 * The binary under test and the fixture directory arrive via compile
 * definitions (GLIDER_LINT_BIN / GLIDER_LINT_FIXTURES) so the test
 * works from any build directory.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct LintRun
{
    int exit_code = -1;
    std::string output;

    /** Number of findings for @p rule (lines containing "[rule]"). */
    int
    count(const std::string &rule) const
    {
        std::string needle = "[" + rule + "]";
        int n = 0;
        std::size_t at = 0;
        while ((at = output.find(needle, at)) != std::string::npos) {
            ++n;
            at += needle.size();
        }
        return n;
    }
};

LintRun
runLint(const std::string &args)
{
    // Built with += : GCC 12's -Wrestrict misfires on chained
    // std::string operator+ here.
    std::string cmd = GLIDER_LINT_BIN;
    cmd += ' ';
    cmd += args;
    cmd += " 2>&1";
    LintRun run;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return run;
    std::array<char, 4096> buf;
    std::size_t n;
    while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
        run.output.append(buf.data(), n);
    int status = pclose(pipe);
    run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return run;
}

std::string
fixture(const std::string &name)
{
    return std::string(GLIDER_LINT_FIXTURES) + "/" + name;
}

/** One bad fixture: (file, rule it must trigger, treat-as path). */
struct BadFixtureRow
{
    const char *file;
    const char *rule;
    const char *treat_as;
};

const BadFixtureRow kBadFixtures[] = {
    {"bad_hotpath_alloc.cc", "hotpath-alloc",
     "src/cachesim/bad_hotpath_alloc.cc"},
    {"bad_json.cc", "json-outside-obs", nullptr},
    {"bad_bench_report.cc", "bench-report",
     "bench/bad_bench_report.cc"},
    {"bad_rng.cc", "unseeded-rng", nullptr},
    {"bad_header_guard.hh", "header-guard",
     "src/cachesim/bad_header_guard.hh"},
    {"bad_include.cc", "include-hygiene", nullptr},
    {"bad_whitespace.cc", "whitespace", nullptr},
    {"bad_hotpath_transitive.cc", "hotpath-transitive",
     "src/cachesim/bad_hotpath_transitive.cc"},
    {"bad_atomic_contract.cc", "atomic-order",
     "src/serve/bad_atomic_contract.cc"},
    {"bad_atomic_mismatch.cc", "atomic-order",
     "src/serve/bad_atomic_mismatch.cc"},
    {"bad_atomic_implicit.cc", "atomic-order",
     "src/serve/bad_atomic_implicit.cc"},
    {"bad_env_getenv.cc", "env-registry",
     "src/serve/bad_env_getenv.cc"},
    {"bad_bare_allow.cc", "allow-reason",
     "src/cachesim/bad_bare_allow.cc"},
};

/**
 * The test parameter: a row of kBadFixtures, with the exit code and
 * the number of findings of its rule that lint must report. It holds
 * no pointers: gtest prints it as its bytes, ctest puts that print in
 * the test names, and so the names are the same in every build and
 * run.
 */
struct BadCase
{
    std::size_t row;
    std::int64_t exit_code;
    std::int64_t findings;
};

std::vector<BadCase>
badCases()
{
    std::vector<BadCase> cases;
    for (std::size_t i = 0; i < std::size(kBadFixtures); ++i)
        cases.push_back({i, 1, 1});
    return cases;
}

class BadFixture : public ::testing::TestWithParam<BadCase>
{
};

TEST_P(BadFixture, TriggersItsRuleExactlyOnce)
{
    const BadCase &p = GetParam();
    const BadFixtureRow &c = kBadFixtures[p.row];
    std::string args = "--rule ";
    args += c.rule;
    if (c.treat_as) {
        args += " --treat-as ";
        args += c.treat_as;
    }
    args += ' ';
    args += fixture(c.file);
    LintRun run = runLint(args);
    EXPECT_EQ(run.exit_code, p.exit_code) << run.output;
    EXPECT_EQ(run.count(c.rule), p.findings) << run.output;
}

INSTANTIATE_TEST_SUITE_P(GliderLint, BadFixture,
                         ::testing::ValuesIn(badCases()),
                         [](const auto &row) {
                             std::string n =
                                 kBadFixtures[row.param.row].file;
                             n = n.substr(0, n.rfind('.'));
                             for (auto &ch : n) {
                                 if (ch == '-' || ch == '.')
                                     ch = '_';
                             }
                             return n;
                         });

TEST(GliderLint, CleanFixturePassesAllRules)
{
    LintRun run = runLint("--treat-as src/cachesim/clean.cc "
                          + fixture("clean.cc"));
    EXPECT_EQ(run.exit_code, 0) << run.output;
    EXPECT_TRUE(run.output.empty()) << run.output;
}

TEST(GliderLint, EscapeHatchesSilenceEveryFinding)
{
    LintRun run = runLint("--treat-as src/cachesim/allowed.cc "
                          + fixture("allowed.cc"));
    EXPECT_EQ(run.exit_code, 0) << run.output;
    EXPECT_TRUE(run.output.empty()) << run.output;
}

TEST(GliderLint, ListRulesOutputIsPinned)
{
    LintRun run = runLint("--list-rules");
    EXPECT_EQ(run.exit_code, 0);
    EXPECT_EQ(run.output, "hotpath-alloc\n"
                          "hotpath-transitive\n"
                          "atomic-order\n"
                          "env-registry\n"
                          "allow-reason\n"
                          "json-outside-obs\n"
                          "bench-report\n"
                          "unseeded-rng\n"
                          "header-guard\n"
                          "include-hygiene\n"
                          "whitespace\n");
}

TEST(GliderLint, ReadmeDriftFiresOneSummaryFinding)
{
    // The drifted fixture README both misses every registered knob
    // and lists an unknown one; the cross-check folds that into a
    // single summary finding.
    LintRun run = runLint("--rule env-registry --readme "
                          + fixture("bad_env_readme.md")
                          + " --treat-as src/cachesim/clean.cc "
                          + fixture("clean.cc"));
    EXPECT_EQ(run.exit_code, 1) << run.output;
    EXPECT_EQ(run.count("env-registry"), 1) << run.output;
    EXPECT_NE(run.output.find("drifted"), std::string::npos)
        << run.output;
    // glider-lint: allow(env-registry) asserting on the fixture's
    // deliberately-unregistered knob name, not reading it.
    EXPECT_NE(run.output.find("GLIDER_NOT_A_KNOB"), std::string::npos)
        << run.output;
}

TEST(GliderLint, UnknownRuleIsAUsageError)
{
    LintRun run = runLint("--rule no-such-rule");
    EXPECT_EQ(run.exit_code, 2) << run.output;
}

TEST(GliderLint, DiffShowsTheMechanicalFix)
{
    LintRun run = runLint("--diff --rule whitespace "
                          + fixture("bad_whitespace.cc"));
    // --diff prints the patch; findings on the unfixed file remain.
    EXPECT_NE(run.output.find("+++"), std::string::npos) << run.output;
    EXPECT_NE(run.output.find("-int fixture_ws = 1; "),
              std::string::npos)
        << run.output;
}

TEST(GliderLint, FixConvergesAndRelintsClean)
{
    // Copy the fixtures into a scratch dir so --fix can write.
    std::string dir = ::testing::TempDir() + "glider_lint_fix";
    std::string ws = dir + "/bad_whitespace.cc";
    std::string guard = dir + "/bad_header_guard.hh";
    ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
    for (const char *name :
         {"bad_whitespace.cc", "bad_header_guard.hh"}) {
        std::ifstream in(fixture(name), std::ios::binary);
        std::ofstream out(dir + "/" + name, std::ios::binary);
        out << in.rdbuf();
        ASSERT_TRUE(out.good());
    }

    LintRun fix_ws = runLint("--fix --rule whitespace " + ws);
    EXPECT_EQ(fix_ws.exit_code, 0) << fix_ws.output;
    LintRun relint_ws = runLint("--rule whitespace " + ws);
    EXPECT_EQ(relint_ws.exit_code, 0) << relint_ws.output;

    // The guard fixture must be re-linted under the same treat-as
    // path it was fixed under, where the rewritten guard is canonical.
    std::string treat = "--treat-as src/cachesim/bad_header_guard.hh ";
    LintRun fix_g = runLint("--fix --rule header-guard " + treat
                            + guard);
    EXPECT_EQ(fix_g.exit_code, 0) << fix_g.output;
    LintRun relint_g = runLint("--rule header-guard " + treat + guard);
    EXPECT_EQ(relint_g.exit_code, 0) << relint_g.output;
    std::ifstream fixed(guard);
    std::stringstream buf;
    buf << fixed.rdbuf();
    EXPECT_NE(
        buf.str().find("#ifndef GLIDER_CACHESIM_BAD_HEADER_GUARD_HH"),
        std::string::npos)
        << buf.str();
}

} // namespace
