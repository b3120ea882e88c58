/**
 * @file
 * Figures 11 and 12 from one single-core sweep. Figure 11: LLC
 * miss-rate reduction over LRU for the 33 single-core benchmarks, for
 * Hawkeye, MPPPB, SHiP++, and Glider, with suite (SPEC17 / SPEC06 /
 * GAP) and overall averages, plus the MIN (Belady) row as the upper
 * bound, as the paper's §5.1 does for single-thread runs. Figure 12:
 * speedup over LRU for the same cells, using the OoO-lite timing
 * model (see cachesim/core_model.hh). Every result row carries both
 * LLC misses and IPC, so the two figures are two views of one set of
 * rows, written to BENCH_fig11_miss_reduction.json and
 * BENCH_fig12_speedup.json.
 *
 * Runs on the parallel SweepRunner: every (workload x policy) cell is
 * an independent simulation fanned across GLIDER_THREADS workers; the
 * printed rows are byte-identical to the serial harness.
 */

#include "bench_common.hh"
#include "common/stats_util.hh"
#include "cachesim/hierarchy.hh"
#include "opt/belady.hh"
#include "opt/llc_stream.hh"

using namespace glider;

namespace {

using Outcome = bench::SweepRunner::CellOutcome;
using Result = sim::SingleCoreResult;

/** Miss count for exact MIN over the (policy-independent) stream. */
Result
runMin(const traces::Trace &trace, const CancelToken &cancel)
{
    sim::SimOptions opts;
    opts.cancel = &cancel;
    auto llc_stream = opt::extractLlcStream(trace, opts.hierarchy);
    return sim::runSingleCore(
        trace, std::make_unique<opt::BeladyPolicy>(llc_stream), opts);
}

/** Zoo-grid columns: the policy zoo plus Glider as the learned bound. */
std::vector<std::string>
gridPolicies()
{
    auto policies = core::zooLineup();
    policies.push_back("Glider");
    return policies;
}

std::string
suiteName(const std::string &workload)
{
    auto suite = workloads::suiteOf(workload);
    if (suite == workloads::Suite::Spec2006)
        return "SPEC06";
    return suite == workloads::Suite::Spec2017 ? "SPEC17" : "GAP";
}

/** What one figure reads from a row and how it prints it. */
struct View
{
    const char *stem;  //!< metric key stem, e.g. "miss_reduction_pct"
    const char *title; //!< grid title, e.g. "miss reduction over LRU"
    double (*metric)(const Result &lru, const Result &x);
    const char *base_label; //!< LRU baseline column header
    double (*base)(const Result &lru);
    int base_decimals;
    bool min_column; //!< print the MIN bound as the last column
};

const View kMissView{
    "miss_reduction_pct", "miss reduction over LRU",
    bench::missReductionPct, "LRU-MPKI",
    [](const Result &r) { return r.mpki(); }, 2, true};

const View kSpeedupView{
    "speedup_pct", "speedup over LRU", bench::speedupPct, "LRU-IPC",
    [](const Result &r) { return r.ipc; }, 3, false};

/** One block of sweep rows: per name, LRU, @c cols, then MIN. */
struct Table
{
    const char *head; //!< first column header
    int name_w;
    int col_w;
    const std::vector<std::string> &names;
    const std::vector<std::string> &cols;
    const Outcome *first; //!< the first name's LRU cell
    std::string key;      //!< metric key prefix
};

/** What a view's shape check reads back from its tables. */
struct Summary
{
    std::map<std::string, double> all; //!< ALL average per policy
    std::size_t min_rows = 0;  //!< rows with a MIN result
    std::size_t min_above = 0; //!< ... whose MIN misses exceed a policy's
};

/**
 * Print @p t under @p v: a header, then one line per name with the
 * LRU baseline and each column's metric. Each metric goes to
 * @p report and to @p sink(name index, column, value).
 */
template <typename Sink>
void
printTable(const View &v, const Table &t, obs::BenchReport &report,
           Summary &sum, Sink sink)
{
    const std::size_t stride = t.cols.size() + 2;
    std::printf("%-*s %9s", t.name_w, t.head, v.base_label);
    for (const auto &c : t.cols)
        std::printf(" %*s", t.col_w, c.c_str());
    if (v.min_column)
        std::printf(" %*s", t.col_w, "MIN");
    std::printf("\n");

    for (std::size_t i = 0; i < t.names.size(); ++i) {
        const auto &name = t.names[i];
        const Outcome *row = t.first + i * stride;
        if (!row[0].ok()) {
            // Without the LRU baseline no metric is computable; the
            // quarantined cell is in the report's degraded list.
            std::printf("%-*s %9s (baseline quarantined)\n", t.name_w,
                        name.c_str(), "n/a");
            continue;
        }
        const auto &lru = row[0].row;
        std::printf("%-*s %9.*f", t.name_w, name.c_str(),
                    v.base_decimals, v.base(lru));
        for (std::size_t p = 0; p < t.cols.size(); ++p) {
            if (!row[1 + p].ok()) {
                std::printf(" %*s", t.col_w, "n/a");
                continue;
            }
            double x = v.metric(lru, row[1 + p].row);
            std::printf(" %*.1f%%", t.col_w - 1, x);
            sink(i, t.cols[p], x);
            report.metric(t.key + "." + name + "." + t.cols[p], x, "%",
                          obs::Direction::Info);
        }
        const Outcome &min = row[stride - 1];
        if (!v.min_column) {
            std::printf("\n");
        } else if (min.ok()) {
            double x = v.metric(lru, min.row);
            std::printf(" %*.1f%%\n", t.col_w - 1, x);
            report.metric(t.key + "." + name + ".MIN", x, "%",
                          obs::Direction::Info);
            bool above = false;
            for (std::size_t p = 0; p + 1 < stride; ++p)
                above |= row[p].ok()
                    && row[p].row.llc.misses < min.row.llc.misses;
            ++sum.min_rows;
            sum.min_above += above ? 1 : 0;
        } else {
            std::printf(" %*s\n", t.col_w, "n/a");
        }
        std::fflush(stdout);
    }
}

/** The sweep's row layout: workload rows, then scenario rows. */
struct Layout
{
    std::vector<std::string> names;
    std::vector<std::string> policies;
    std::vector<std::string> scenarios;
    std::vector<std::string> zoo;
};

/**
 * Print one figure's per-workload table, suite and overall averages,
 * and zoo grid from the sweep's @p rows, recording every value in
 * @p report.
 */
Summary
printView(const View &v, const Layout &l,
          const std::vector<Outcome> &rows, obs::BenchReport &report)
{
    const std::string stem = v.stem;
    Summary sum;
    std::map<std::string, std::vector<double>> suite_acc;
    std::map<std::string, std::vector<double>> all_acc;
    printTable(v,
               {"Benchmark", 14, 9, l.names, l.policies, rows.data(),
                stem},
               report, sum,
               [&](std::size_t i, const std::string &p, double x) {
                   suite_acc[suiteName(l.names[i]) + "/" + p].push_back(
                       x);
                   all_acc[p].push_back(x);
               });

    std::printf("\n%-14s", "Suite avg");
    for (const auto &p : l.policies)
        std::printf(" %12s", p.c_str());
    std::printf("\n");
    for (const char *suite : {"SPEC17", "SPEC06", "GAP"}) {
        std::printf("%-14s", suite);
        for (const auto &p : l.policies) {
            double avg = amean(suite_acc[std::string(suite) + "/" + p]);
            std::printf(" %11.1f%%", avg);
            report.metric(stem + ".avg." + suite + "." + p, avg, "%",
                          obs::Direction::HigherBetter);
        }
        std::printf("\n");
    }
    std::printf("%-14s", "ALL");
    for (const auto &p : l.policies) {
        double avg = sum.all[p] = amean(all_acc[p]);
        std::printf(" %11.1f%%", avg);
        report.metric(stem + ".avg.ALL." + p, avg, "%",
                      obs::Direction::HigherBetter);
    }
    std::printf("\n");

    // ---- Policy zoo x adversarial scenarios -------------------------
    std::printf("\nPolicy zoo x adversarial scenarios (%s, %llu "
                "accesses)\n",
                v.title,
                static_cast<unsigned long long>(
                    bench::scenarioAccesses()));
    const std::size_t grid_base =
        l.names.size() * (l.policies.size() + 2);
    std::map<std::string, std::vector<double>> grid_acc;
    printTable(v,
               {"Scenario", 16, 10, l.scenarios, l.zoo,
                rows.data() + grid_base, "grid." + stem},
               report, sum,
               [&](std::size_t, const std::string &p, double x) {
                   grid_acc[p].push_back(x);
               });
    std::printf("%-16s %9s", "Scenario avg", "");
    for (const auto &p : l.zoo) {
        double avg = amean(grid_acc[p]);
        std::printf(" %9.1f%%", avg);
        report.metric("grid." + stem + ".avg." + p, avg, "%",
                      obs::Direction::HigherBetter);
    }
    std::printf("\n");
    return sum;
}

/** One measured shape-check line: "  <a> 2.0% > <b> 1.0%: holds". */
void
printOrdering(const std::string &a, double av, const std::string &b,
              double bv)
{
    std::printf("  %s %.1f%% > %s %.1f%%: %s\n", a.c_str(), av,
                b.c_str(), bv, av > bv ? "holds" : "does not hold");
}

/** The paper's "Glider leads on average" ordering, measured. */
void
printGliderLeads(const std::map<std::string, double> &all)
{
    for (const auto &[p, avg] : all) {
        if (p != "Glider")
            printOrdering("Glider", all.at("Glider"), p, avg);
    }
}

} // namespace

int
main()
{
    bench::printBanner(
        "Figure 11: miss-rate reduction over LRU (single core)",
        "averages — Glider 8.9%, SHiP++ 7.5%, Hawkeye 7.1%, MPPPB 6.5%");

    Layout layout{workloads::figure11Workloads(),
                  core::paperLineup(), // Hawkeye MPPPB SHiP++ Glider
                  workloads::scenarioWorkloads(), gridPolicies()};

    // Per workload: the LRU baseline, the lineup, then the MIN bound.
    // Cells run under the resilience layer: a failing cell is
    // quarantined (its columns print n/a, the report is marked
    // degraded), and with GLIDER_CKPT set, completed rows persist so
    // an interrupted sweep resumes where it stopped.
    bench::SweepRunner sweep;
    for (const auto &name : layout.names) {
        sweep.queue(name, "LRU");
        for (const auto &p : layout.policies)
            sweep.queue(name, p);
        sweep.queueCell(name + "/MIN",
                        [name](const CancelToken &cancel) {
                            return runMin(bench::buildTrace(name),
                                          cancel);
                        });
    }

    // Policy zoo x adversarial scenarios: appended to the same sweep
    // (one checkpoint file, shared worker pool); cells run at the
    // scenario trace length (GLIDER_SCENARIO_ACCESSES).
    std::vector<std::string> grid_cols{"LRU"};
    grid_cols.insert(grid_cols.end(), layout.zoo.begin(),
                     layout.zoo.end());
    for (const auto &scen : layout.scenarios) {
        for (const auto &p : grid_cols) {
            sweep.queueCell(scen + "/" + p,
                            [scen, p](const CancelToken &cancel) {
                                auto source =
                                    bench::buildScenarioSource(scen);
                                return bench::runPolicy(*source, p,
                                                        &cancel);
                            });
        }
        sweep.queueCell(scen + "/MIN",
                        [scen](const CancelToken &cancel) {
                            return runMin(
                                bench::buildScenarioTrace(scen),
                                cancel);
                        });
    }

    auto sweep_opts = bench::sweepOptions("fig11_miss_reduction");
    sweep_opts.config["scenario_accesses"] =
        obs::json::Value(bench::scenarioAccesses());
    const auto outcome = sweep.runChecked(sweep_opts);
    const obs::json::Value scenario_accesses(bench::scenarioAccesses());

    auto fig11 = bench::makeReport("fig11_miss_reduction");
    fig11.config("scenario_accesses", scenario_accesses);
    const auto misses = printView(kMissView, layout, outcome.cells, fig11);
    std::printf("\nShape check (paper: Glider's average reduction "
                "exceeds the others'; MIN bounds every policy):\n");
    printGliderLeads(misses.all);
    // Not a gate: MIN is exact over the whole stream, but the stats
    // reset at the end of warm-up, and a policy may legally beat MIN
    // inside the measured window.
    std::printf("  MIN misses above a policy's in %zu of %zu rows "
                "(MIN is optimal over the whole stream, not the "
                "measured window)\n",
                misses.min_above, misses.min_rows);
    bench::reportHarness(fig11, sweep);
    bench::reportResilience(fig11, outcome);
    fig11.write();

    bench::printBanner(
        "Figure 12: speedup over LRU (single core)",
        "averages — Glider 8.1%, MPPPB 7.6%, SHiP++ 7.1%, Hawkeye 5.9%");
    auto fig12 = bench::makeReport("fig12_speedup");
    fig12.config("scenario_accesses", scenario_accesses);
    const auto speedups =
        printView(kSpeedupView, layout, outcome.cells, fig12).all;
    std::printf("\nShape check (paper: Glider leads on average; "
                "speedups track the Figure 11 miss reductions "
                "sub-linearly):\n");
    printGliderLeads(speedups);
    for (const auto &p : layout.policies)
        printOrdering(p + " miss reduction", misses.all.at(p), "speedup",
                      speedups.at(p));
    bench::reportHarness(fig12, sweep);
    bench::reportResilience(fig12, outcome);
    fig12.write();
    return outcome.degraded() ? 2 : 0;
}
