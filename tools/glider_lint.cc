/**
 * @file
 * glider_lint: repo-specific static analysis for the Glider codebase.
 *
 * The perf harness (PR 1), the invariant layer (PR 2), and the
 * metrics gate (PR 3) all enforce their rules at *runtime*. This tool
 * turns the implicit repo conventions those layers rely on into
 * compile-time-adjacent checks that run in seconds, with no libclang
 * dependency: a light C++ tokenizer plus a scope tracker good enough
 * for this codebase's style (tools/lint/lint_core.*).
 *
 * Per-file rules (ids as printed and as accepted by allow()):
 *
 *   hotpath-alloc   No heap allocation or container growth inside hot
 *                   functions of the simulator hot-path directories
 *                   (src/cachesim, src/policies, src/opt). Functions
 *                   named reset, exportMetrics, clearStats,
 *                   clearStatsCounters or clearCounters, plus
 *                   constructors and destructors, are cold.
 *   json-outside-obs
 *                   No hand-rolled JSON: string/char literals with
 *                   embedded quotes outside src/obs (obs::json is the
 *                   one serializer in the repo).
 *   bench-report    Every bench .cc binary must emit a machine-
 *                   readable artifact via bench::makeReport or
 *                   obs::BenchReport.
 *   unseeded-rng    No std::rand/random_device/mt19937/...; all
 *                   randomness flows through common/rng.hh's
 *                   explicitly seeded Rng.
 *   header-guard    .hh files carry the canonical include guard
 *                   derived from their path (mechanical; --fix).
 *   include-hygiene No parent-relative ("../") includes, no bits/
 *                   internals, no using-namespace in headers.
 *   whitespace      No trailing whitespace, no tabs, files end with
 *                   exactly one newline (mechanical; --fix).
 *   allow-reason    Every allow()/allow-file() escape hatch carries
 *                   trailing prose saying why the exemption is sound.
 *   env-registry    getenv("GLIDER_*") only inside the env-knob
 *                   registry; GLIDER_* string literals must name
 *                   registered knobs; README's knob table must match
 *                   the registry exactly (tools/lint/env_rule.*).
 *
 * Whole-tree rules (run over every scanned file at once):
 *
 *   hotpath-transitive
 *                   Cross-TU call-graph reachability: every hot-path
 *                   function must reach only allocation-free,
 *                   throw-free, lock-free functions
 *                   (tools/lint/call_graph.*).
 *   atomic-order    Explicit std::memory_order on every atomic op in
 *                   src/serve/, the thread-pool/cancellation
 *                   headers, the CPU budget and the replay-stage
 *                   handoff, and
 *                   machine-checked `// glider-mo:`
 *                   contracts on atomic members
 *                   (tools/lint/atomic_order.*).
 *
 * Escape hatches, checked per finding:
 *   // glider-lint: allow(rule-id[, rule-id...]) <reason>
 *     on the offending line or the line directly above it.
 *   // glider-lint: allow-file(rule-id) <reason>
 *     anywhere in the file disables the rule for the whole file.
 *
 * Usage:
 *   glider_lint [--root DIR] [--rule ID]... [--treat-as RELPATH]
 *               [--readme PATH] [--fix | --diff] [--list-rules]
 *               [--print-env-table] [PATH...]
 * With no PATH arguments the default tree (src bench tools tests
 * examples under --root) is scanned; build trees and the lint
 * fixture corpus under tests/lint/fixtures are always skipped.
 * Exit status: 0 clean, 1 findings, 2 usage/IO.
 *
 * glider-lint: allow-file(json-outside-obs) the linter's own rule
 * implementations and raw-string handling spell out escaped-quote
 * literals.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/atomic_order.hh"
#include "lint/call_graph.hh"
#include "lint/env_rule.hh"
#include "lint/lint_core.hh"

namespace fs = std::filesystem;

namespace glider {
namespace lint {
namespace {

// ----------------------------------------------------- per-file rules

void
ruleHotpathAlloc(const FileCtx &ctx, std::vector<Finding> &out)
{
    if (!isHotPathFile(ctx.rel))
        return;
    ScopeTracker scopes(ctx.toks);
    for (std::size_t i = 0; i < ctx.toks.size(); ++i) {
        scopes.step(i);
        const ScopeTracker::Scope *fn = scopes.enclosingFunction();
        if (!fn || fn->cold)
            continue;
        std::string what = allocationAt(ctx, i);
        if (what.empty())
            continue;
        report(out, ctx, "hotpath-alloc", ctx.toks[i].line,
               what + " in hot function '" + fn->name
                   + "' — the simulator access/victim path must not "
                     "allocate (reserve in reset() or annotate)");
    }
}

void
ruleJsonOutsideObs(const FileCtx &ctx, std::vector<Finding> &out)
{
    if (startsWith(ctx.rel, "src/obs/"))
        return;
    for (const Token &t : ctx.toks) {
        if (t.kind == Token::Kind::String) {
            if (t.text.find("\\\"") != std::string::npos) {
                report(out, ctx, "json-outside-obs", t.line,
                       "string literal with embedded quotes — build "
                       "machine-readable output with obs::json, not "
                       "by hand");
            }
        } else if (t.kind == Token::Kind::CharLit
                   && t.text == "\\\"") {
            report(out, ctx, "json-outside-obs", t.line,
                   "quote character literal printed directly — use "
                   "obs::json for quoted output");
        }
    }
}

void
ruleBenchReport(const FileCtx &ctx, std::vector<Finding> &out)
{
    if (!startsWith(ctx.rel, "bench/") || !endsWith(ctx.rel, ".cc"))
        return;
    int main_line = 0;
    bool has_report = false;
    for (const Token &t : ctx.toks) {
        if (t.kind != Token::Kind::Ident)
            continue;
        if (t.text == "main" && main_line == 0)
            main_line = t.line;
        if (t.text == "makeReport" || t.text == "BenchReport")
            has_report = true;
    }
    if (main_line != 0 && !has_report) {
        report(out, ctx, "bench-report", main_line,
               "bench binary never builds a BenchReport — every "
               "harness must emit BENCH_<name>.json via "
               "bench::makeReport");
    }
}

void
ruleUnseededRng(const FileCtx &ctx, std::vector<Finding> &out)
{
    if (ctx.rel == "src/common/rng.hh")
        return;
    static const std::set<std::string> banned = {
        "rand",          "srand",        "rand_r",
        "drand48",       "lrand48",      "mrand48",
        "random_device", "mt19937",      "mt19937_64",
        "minstd_rand",   "minstd_rand0", "default_random_engine",
        "knuth_b",       "ranlux24",     "ranlux48",
        "random_shuffle"};
    for (const Token &t : ctx.toks) {
        if (t.kind == Token::Kind::Ident && banned.count(t.text)) {
            report(out, ctx, "unseeded-rng", t.line,
                   "'" + t.text
                       + "' — all randomness must flow through the "
                         "explicitly seeded glider::Rng "
                         "(common/rng.hh) for reproducibility");
        }
    }
}

/** Canonical guard name for a header path. */
std::string
expectedGuard(std::string rel)
{
    if (startsWith(rel, "src/"))
        rel = rel.substr(4);
    std::string g = "GLIDER_";
    for (char c : rel) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            g += static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
        else
            g += '_';
    }
    return g;
}

/** The three guard directives of a header, if present. */
struct GuardLines
{
    int ifndef_line = 0, define_line = 0, endif_line = 0;
    std::string ifndef_text, define_text, endif_text;
};

GuardLines
findGuard(const FileCtx &ctx)
{
    GuardLines g;
    for (const Token &t : ctx.toks) {
        if (t.kind != Token::Kind::Pp)
            continue;
        if (g.ifndef_line == 0 && startsWith(t.text, "#ifndef")) {
            g.ifndef_line = t.line;
            g.ifndef_text = t.text;
        } else if (g.ifndef_line != 0 && g.define_line == 0
                   && startsWith(t.text, "#define")) {
            g.define_line = t.line;
            g.define_text = t.text;
        }
        if (startsWith(t.text, "#endif")) {
            g.endif_line = t.line; // last one wins
            g.endif_text = t.text;
        }
    }
    return g;
}

void
ruleHeaderGuard(const FileCtx &ctx, std::vector<Finding> &out)
{
    if (!endsWith(ctx.rel, ".hh") && !endsWith(ctx.rel, ".h"))
        return;
    std::string want = expectedGuard(ctx.rel);
    GuardLines g = findGuard(ctx);
    if (g.ifndef_line == 0 || g.define_line == 0
        || g.endif_line == 0) {
        report(out, ctx, "header-guard", 1,
               "missing include guard; expected #ifndef " + want);
        return;
    }
    auto second_word = [](const std::string &s) {
        std::stringstream ss(s);
        std::string a, b;
        ss >> a >> b;
        return b;
    };
    if (second_word(g.ifndef_text) != want
        || second_word(g.define_text) != want) {
        report(out, ctx, "header-guard", g.ifndef_line,
               "include guard is '" + second_word(g.ifndef_text)
                   + "', expected '" + want
                   + "' (derived from path)");
    } else if (g.endif_text.find("// " + want)
               == std::string::npos) {
        report(out, ctx, "header-guard", g.endif_line,
               "closing #endif should carry the guard comment '// "
                   + want + "'");
    }
}

/** Mechanical fix for header-guard: returns fixed content or none. */
std::optional<std::string>
fixHeaderGuard(const FileCtx &ctx)
{
    if (!endsWith(ctx.rel, ".hh") && !endsWith(ctx.rel, ".h"))
        return std::nullopt;
    std::string want = expectedGuard(ctx.rel);
    GuardLines g = findGuard(ctx);
    if (g.ifndef_line == 0 || g.define_line == 0
        || g.endif_line == 0)
        return std::nullopt; // structural surgery is not mechanical
    std::vector<std::string> lines = ctx.lines;
    auto set_line = [&](int ln, const std::string &text) {
        if (ln >= 1 && ln <= static_cast<int>(lines.size()))
            lines[static_cast<std::size_t>(ln - 1)] = text;
    };
    set_line(g.ifndef_line, "#ifndef " + want);
    set_line(g.define_line, "#define " + want);
    set_line(g.endif_line, "#endif // " + want);
    std::string fixed;
    for (const auto &l : lines)
        fixed += l + "\n";
    return fixed;
}

void
ruleIncludeHygiene(const FileCtx &ctx, std::vector<Finding> &out)
{
    bool is_header =
        endsWith(ctx.rel, ".hh") || endsWith(ctx.rel, ".h");
    for (std::size_t i = 0; i < ctx.toks.size(); ++i) {
        const Token &t = ctx.toks[i];
        if (t.kind == Token::Kind::Pp
            && startsWith(t.text, "#include")) {
            if (t.text.find("\"..") != std::string::npos) {
                report(out, ctx, "include-hygiene", t.line,
                       "parent-relative #include — include repo-"
                       "root-relative paths (target include dirs "
                       "cover src/)");
            }
            if (t.text.find("<bits/") != std::string::npos) {
                report(out, ctx, "include-hygiene", t.line,
                       "#include <bits/...> is libstdc++-internal "
                       "and non-portable");
            }
        }
        if (is_header && t.kind == Token::Kind::Ident
            && t.text == "using" && i + 1 < ctx.toks.size()
            && ctx.toks[i + 1].text == "namespace") {
            report(out, ctx, "include-hygiene", t.line,
                   "using-namespace in a header leaks into every "
                   "includer");
        }
    }
}

void
ruleWhitespace(const FileCtx &ctx, std::vector<Finding> &out)
{
    for (std::size_t i = 0; i < ctx.lines.size(); ++i) {
        const std::string &l = ctx.lines[i];
        int line = static_cast<int>(i) + 1;
        if (!l.empty()
            && (l.back() == ' ' || l.back() == '\t'
                || l.back() == '\r')) {
            report(out, ctx, "whitespace", line,
                   "trailing whitespace");
        }
        if (l.find('\t') != std::string::npos)
            report(out, ctx, "whitespace", line,
                   "tab character (the tree is space-indented)");
    }
    if (!ctx.content.empty() && ctx.content.back() != '\n')
        report(out, ctx, "whitespace",
               static_cast<int>(ctx.lines.size()),
               "file does not end with a newline");
    if (ctx.content.size() >= 2
        && ctx.content[ctx.content.size() - 1] == '\n'
        && ctx.content[ctx.content.size() - 2] == '\n')
        report(out, ctx, "whitespace",
               static_cast<int>(ctx.lines.size()),
               "multiple trailing newlines");
}

std::optional<std::string>
fixWhitespace(const FileCtx &ctx)
{
    std::string fixed;
    for (const std::string &raw : ctx.lines) {
        std::string l = raw;
        std::size_t end = l.find_last_not_of(" \t\r");
        l = end == std::string::npos ? "" : l.substr(0, end + 1);
        // Tabs inside the line become four spaces (alignment is the
        // author's problem; the rule keeps tabs out of the tree).
        std::string detabbed;
        for (char c : l) {
            if (c == '\t')
                detabbed += "    ";
            else
                detabbed += c;
        }
        fixed += detabbed + "\n";
    }
    while (fixed.size() >= 2 && fixed[fixed.size() - 1] == '\n'
           && fixed[fixed.size() - 2] == '\n')
        fixed.pop_back();
    if (fixed == ctx.content)
        return std::nullopt;
    return fixed;
}

// -------------------------------------------------------------- driver

const std::vector<std::string> kAllRules = {
    "hotpath-alloc",   "hotpath-transitive", "atomic-order",
    "env-registry",    "allow-reason",       "json-outside-obs",
    "bench-report",    "unseeded-rng",       "header-guard",
    "include-hygiene", "whitespace"};

struct Options
{
    fs::path root = fs::current_path();
    std::set<std::string> rules; //!< empty = all
    std::vector<std::string> paths;
    std::string treat_as; //!< lint single files under this rel path
    std::string readme;   //!< override README.md for env-registry
    bool fix = false;
    bool diff = false;
};

bool
ruleEnabled(const Options &opt, const std::string &rule)
{
    return opt.rules.empty() || opt.rules.count(rule) != 0;
}

void
runPerFileRules(const Options &opt, const FileCtx &ctx,
                std::vector<Finding> &out)
{
    if (ruleEnabled(opt, "hotpath-alloc"))
        ruleHotpathAlloc(ctx, out);
    if (ruleEnabled(opt, "json-outside-obs"))
        ruleJsonOutsideObs(ctx, out);
    if (ruleEnabled(opt, "bench-report"))
        ruleBenchReport(ctx, out);
    if (ruleEnabled(opt, "unseeded-rng"))
        ruleUnseededRng(ctx, out);
    if (ruleEnabled(opt, "header-guard"))
        ruleHeaderGuard(ctx, out);
    if (ruleEnabled(opt, "include-hygiene"))
        ruleIncludeHygiene(ctx, out);
    if (ruleEnabled(opt, "whitespace"))
        ruleWhitespace(ctx, out);
    if (ruleEnabled(opt, "allow-reason"))
        ruleAllowReason(ctx, out);
    if (ruleEnabled(opt, "env-registry"))
        ruleEnvRegistry(ctx, out);
}

/** Line-based diff between @p before and @p after (minimal hunks). */
void
printDiff(const std::string &rel, const std::string &before,
          const std::string &after)
{
    auto split = [](const std::string &s) {
        std::vector<std::string> lines;
        std::stringstream ss(s);
        std::string l;
        while (std::getline(ss, l))
            lines.push_back(l);
        return lines;
    };
    std::vector<std::string> a = split(before), b = split(after);
    std::printf("--- a/%s\n+++ b/%s\n", rel.c_str(), rel.c_str());
    std::size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
        if (i < a.size() && j < b.size() && a[i] == b[j]) {
            ++i;
            ++j;
            continue;
        }
        // Emit one minimal replace/delete/insert hunk: scan forward
        // for the next resync point.
        std::size_t ri = i, rj = j;
        bool synced = false;
        for (std::size_t look = 1; look < 50 && !synced; ++look) {
            if (i + look <= a.size() && j + look <= b.size()) {
                for (std::size_t di = 0; di <= look && !synced;
                     ++di) {
                    std::size_t dj = look - di;
                    if (i + di < a.size() && j + dj < b.size()
                        && a[i + di] == b[j + dj]) {
                        ri = i + di;
                        rj = j + dj;
                        synced = true;
                    }
                }
            }
        }
        if (!synced) {
            ri = a.size();
            rj = b.size();
        }
        std::printf("@@ -%zu +%zu @@\n", i + 1, j + 1);
        for (; i < ri; ++i)
            std::printf("-%s\n", a[i].c_str());
        for (; j < rj; ++j)
            std::printf("+%s\n", b[j].c_str());
    }
}

/**
 * Load and tokenize one file (applying/printing mechanical fixes when
 * asked) and append its context to @p files. Per-file and whole-tree
 * rules run later, over the collected set.
 */
void
loadFile(const Options &opt, const fs::path &abs,
         const std::string &rel, std::vector<FileCtx> &files,
         std::vector<Finding> &findings, int *fixed_files)
{
    std::ifstream in(abs, std::ios::binary);
    if (!in) {
        findings.push_back({rel, 0, "io", "cannot read file"});
        return;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    FileCtx ctx;
    ctx.rel = rel;
    ctx.content = buf.str();
    std::stringstream ls(ctx.content);
    std::string l;
    while (std::getline(ls, l))
        ctx.lines.push_back(l);
    tokenize(ctx);

    if (opt.fix || opt.diff) {
        std::string current = ctx.content;
        // Whitespace first so guard fixes land on clean lines.
        for (int pass = 0; pass < 2; ++pass) {
            FileCtx staged;
            staged.rel = ctx.rel;
            staged.content = current;
            std::stringstream ss(current);
            std::string line;
            while (std::getline(ss, line))
                staged.lines.push_back(line);
            std::optional<std::string> next;
            if (pass == 0 && ruleEnabled(opt, "whitespace"))
                next = fixWhitespace(staged);
            if (pass == 1 && ruleEnabled(opt, "header-guard")) {
                tokenize(staged);
                // Only rewrite when the rule actually fires.
                std::vector<Finding> probe;
                ruleHeaderGuard(staged, probe);
                if (!probe.empty())
                    next = fixHeaderGuard(staged);
            }
            if (next)
                current = *next;
        }
        if (current != ctx.content) {
            if (opt.diff) {
                printDiff(rel, ctx.content, current);
            } else {
                std::ofstream outf(abs, std::ios::binary);
                outf << current;
                ++*fixed_files;
                // Re-lint the fixed content below.
                FileCtx fresh;
                fresh.rel = rel;
                fresh.content = current;
                std::stringstream ss(current);
                std::string line;
                while (std::getline(ss, line))
                    fresh.lines.push_back(line);
                tokenize(fresh);
                ctx = std::move(fresh);
            }
        }
    }
    files.push_back(std::move(ctx));
}

bool
lintableExtension(const fs::path &p)
{
    std::string e = p.extension().string();
    return e == ".cc" || e == ".hh" || e == ".cpp" || e == ".h";
}

bool
skippedDir(const fs::path &p)
{
    std::string name = p.filename().string();
    if (startsWith(name, "build"))
        return true;
    // The lint self-test corpus deliberately violates every rule.
    return p.parent_path().filename() == "lint" && name == "fixtures";
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: glider_lint [--root DIR] [--rule ID]... "
        "[--treat-as RELPATH] [--readme PATH] [--fix|--diff] "
        "[--list-rules] [--print-env-table] [PATH...]\n");
    return 2;
}

} // namespace
} // namespace lint
} // namespace glider

int
main(int argc, char **argv)
{
    using namespace glider::lint;
    Options opt;
    std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a == "--root" && i + 1 < args.size()) {
            opt.root = fs::path(args[++i]);
        } else if (a == "--rule" && i + 1 < args.size()) {
            std::string r = args[++i];
            if (std::find(kAllRules.begin(), kAllRules.end(), r)
                == kAllRules.end()) {
                std::fprintf(stderr,
                             "glider_lint: unknown rule '%s'\n",
                             r.c_str());
                return 2;
            }
            opt.rules.insert(r);
        } else if (a == "--treat-as" && i + 1 < args.size()) {
            opt.treat_as = args[++i];
        } else if (a == "--readme" && i + 1 < args.size()) {
            opt.readme = args[++i];
        } else if (a == "--fix") {
            opt.fix = true;
        } else if (a == "--diff") {
            opt.diff = true;
        } else if (a == "--list-rules") {
            for (const auto &r : kAllRules)
                std::printf("%s\n", r.c_str());
            return 0;
        } else if (a == "--print-env-table") {
            std::printf("%s", envKnobTable().c_str());
            return 0;
        } else if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else if (startsWith(a, "--")) {
            return usage();
        } else {
            opt.paths.push_back(a);
        }
    }
    if (opt.fix && opt.diff) {
        std::fprintf(stderr,
                     "glider_lint: --fix and --diff are exclusive\n");
        return 2;
    }

    bool default_tree = opt.paths.empty();
    if (default_tree)
        opt.paths = {"src", "bench", "tools", "tests", "examples"};

    // Phase 1: load every file in scope.
    std::vector<FileCtx> files;
    std::vector<Finding> findings;
    int fixed_files = 0;
    for (const std::string &p : opt.paths) {
        fs::path abs =
            fs::path(p).is_absolute() ? fs::path(p) : opt.root / p;
        std::error_code ec;
        if (fs::is_directory(abs, ec)) {
            std::vector<fs::path> batch;
            fs::recursive_directory_iterator it(
                abs, fs::directory_options::skip_permission_denied,
                ec),
                end;
            for (; it != end; it.increment(ec)) {
                if (it->is_directory(ec) && skippedDir(it->path())) {
                    it.disable_recursion_pending();
                    continue;
                }
                if (it->is_regular_file(ec)
                    && lintableExtension(it->path()))
                    batch.push_back(it->path());
            }
            std::sort(batch.begin(), batch.end());
            for (const fs::path &f : batch) {
                std::string rel =
                    fs::relative(f, opt.root, ec).generic_string();
                loadFile(opt, f, rel, files, findings, &fixed_files);
            }
        } else if (fs::is_regular_file(abs, ec)) {
            std::string rel = !opt.treat_as.empty()
                ? opt.treat_as
                : fs::relative(abs, opt.root, ec).generic_string();
            loadFile(opt, abs, rel, files, findings, &fixed_files);
        } else {
            std::fprintf(stderr, "glider_lint: no such path: %s\n",
                         abs.string().c_str());
            return 2;
        }
    }

    // Phase 2: per-file rules, then whole-tree rules over the
    // collected set. With --treat-as the set is exactly the files
    // named on the command line, so fixture runs stay hermetic.
    for (const FileCtx &ctx : files)
        runPerFileRules(opt, ctx, findings);
    if (ruleEnabled(opt, "hotpath-transitive"))
        ruleHotpathTransitive(files, findings);
    if (ruleEnabled(opt, "atomic-order"))
        ruleAtomicOrder(files, findings);
    if (ruleEnabled(opt, "env-registry")) {
        fs::path readme = !opt.readme.empty()
            ? (fs::path(opt.readme).is_absolute()
                   ? fs::path(opt.readme)
                   : opt.root / opt.readme)
            : opt.root / "README.md";
        // Single-file --treat-as runs only check the README when one
        // was named explicitly: fixture invocations stay hermetic.
        bool check_readme = !opt.readme.empty()
            || (default_tree && fs::exists(readme));
        if (check_readme) {
            std::ifstream in(readme, std::ios::binary);
            if (!in) {
                findings.push_back({readme.generic_string(), 0, "io",
                                    "cannot read README"});
            } else {
                std::stringstream buf;
                buf << in.rdbuf();
                std::error_code ec;
                std::string rel = fs::relative(readme, opt.root, ec)
                                      .generic_string();
                ruleEnvRegistryReadme(
                    rel.empty() ? readme.generic_string() : rel,
                    buf.str(), findings);
            }
        }
    }

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    for (const Finding &f : findings) {
        std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                    f.rule.c_str(), f.msg.c_str());
    }
    if (fixed_files > 0)
        std::fprintf(stderr, "glider_lint: fixed %d file(s)\n",
                     fixed_files);
    if (!findings.empty()) {
        std::fprintf(stderr,
                     "glider_lint: %zu finding(s) in %zu file(s) "
                     "scanned\n",
                     findings.size(), files.size());
        return 1;
    }
    return 0;
}
