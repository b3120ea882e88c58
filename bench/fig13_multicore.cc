/**
 * @file
 * Figure 13: weighted speedup over LRU for 4-core mixes sharing an
 * 8MB LLC (§5.1 methodology: weighted IPC = sum of per-benchmark
 * IPC_shared / IPC_single, normalised to LRU's weighted IPC; traces
 * rewind until every core retires its quota).
 *
 * The paper plots 100 mixes; GLIDER_MIXES (default 20) controls how
 * many random mixes this harness draws. The output is the sorted
 * per-mix curve plus averages, matching the figure's presentation.
 */

#include <algorithm>

#include "bench_common.hh"
#include "common/stats_util.hh"
#include "common/rng.hh"

using namespace glider;

int
main()
{
    bench::printBanner(
        "Figure 13: weighted speedup over LRU, 4-core shared LLC",
        "averages — Glider 14.7%, Hawkeye 13.6%, MPPPB 13.2%, "
        "SHiP++ 11.4%");

    const auto policies = core::paperLineup();
    const std::size_t mixes = env::u64(env::Knob::Mixes);
    const std::uint64_t per_core =
        env::u64(env::Knob::MixAccesses);

    sim::SimOptions opts;
    opts.hierarchy = sim::HierarchyConfig::forCores(4);
    opts.warmup_fraction = 0.1;

    auto names = workloads::figure11Workloads();
    Rng rng(2026);

    // IPC in isolation (on the shared-LLC-sized hierarchy) per
    // (benchmark, policy) — memoised across mixes.
    std::map<std::pair<std::string, std::string>, double> single_ipc;
    auto singleIpc = [&](const std::string &wl, const std::string &pol,
                         const sim::SimOptions &run_opts) {
        auto key = std::make_pair(wl, pol);
        auto it = single_ipc.find(key);
        if (it != single_ipc.end())
            return it->second;
        const auto &t = workloads::cachedTrace(wl, bench::traceAccesses()
                                                       / 4);
        auto res = sim::runMultiCore({&t}, core::makePolicy(pol),
                                     per_core, run_opts);
        return single_ipc[key] = res.ipc_shared[0];
    };

    // Each mix runs as one resilience cell: all five policy runs for
    // the mix, so a fault quarantines the whole mix (its row drops
    // from the curves) without aborting sibling mixes.
    const auto fault_plan = resilience::FaultPlan::fromEnv();
    const auto recovery = resilience::RecoveryOptions::fromEnv();
    auto report = bench::makeReport("fig13_multicore");
    std::map<std::string, std::vector<double>> ws_by_policy;
    std::size_t completed = 0;
    for (std::size_t m = 0; m < mixes; ++m) {
        std::vector<std::string> mix;
        std::vector<const traces::Trace *> traces;
        for (int c = 0; c < 4; ++c) {
            mix.push_back(names[rng.below(names.size())]);
            traces.push_back(&workloads::cachedTrace(
                mix.back(), bench::traceAccesses() / 4));
        }
        std::printf("mix %2zu: %s %s %s %s\n", m, mix[0].c_str(),
                    mix[1].c_str(), mix[2].c_str(), mix[3].c_str());

        const std::string key = "mix" + std::to_string(m);
        auto cell = resilience::runCell<std::vector<double>>(
            key,
            [&](const CancelToken &token) {
                sim::SimOptions mix_opts = opts;
                mix_opts.cancel = &token;
                auto weighted = [&](const std::string &pol) {
                    auto res = sim::runMultiCore(
                        traces, core::makePolicy(pol), per_core,
                        mix_opts);
                    double ws = 0.0;
                    for (int c = 0; c < 4; ++c)
                        ws += res.ipc_shared[c]
                              / singleIpc(mix[c], pol, mix_opts);
                    return ws;
                };
                double ws_lru = weighted("LRU");
                std::vector<double> pcts;
                for (const auto &p : policies)
                    pcts.push_back(100.0 * (weighted(p) / ws_lru - 1.0));
                return pcts;
            },
            recovery, &fault_plan);
        if (cell.status == resilience::CellStatus::Quarantined) {
            std::printf("mix %2zu: quarantined after %d attempt(s): "
                        "%s\n",
                        m, cell.attempts, cell.error.c_str());
            report.quarantine(key, cell.error, cell.attempts);
            std::fflush(stdout);
            continue;
        }
        for (std::size_t p = 0; p < policies.size(); ++p)
            ws_by_policy[policies[p]].push_back((*cell.value)[p]);
        ++completed;
        std::fflush(stdout);
    }

    // Quarantined mixes are excluded from the curves, so the sorted
    // rows count completed mixes, not drawn mixes.
    std::printf("\nSorted weighted-speedup-over-LRU curves (%%):\n");
    std::printf("%-6s", "mix#");
    for (const auto &p : policies)
        std::printf(" %9s", p.c_str());
    std::printf("\n");
    auto sorted = ws_by_policy;
    for (auto &[p, v] : sorted)
        std::sort(v.begin(), v.end());
    for (std::size_t m = 0; m < completed; ++m) {
        std::printf("%-6zu", m);
        for (const auto &p : policies)
            std::printf(" %8.1f%%", sorted[p][m]);
        std::printf("\n");
    }
    std::printf("%-6s", "avg");
    report.config("mixes",
                  obs::json::Value(static_cast<std::uint64_t>(mixes)));
    report.config("mix_accesses", obs::json::Value(per_core));
    for (const auto &p : policies) {
        double avg = amean(ws_by_policy[p]);
        std::printf(" %8.1f%%", avg);
        report.metric("weighted_speedup_pct.avg." + p, avg, "%",
                      obs::Direction::HigherBetter);
        for (std::size_t m = 0; m < completed; ++m) {
            report.metric("weighted_speedup_pct.mix"
                              + std::to_string(m) + "." + p,
                          ws_by_policy[p][m], "%",
                          obs::Direction::Info);
        }
    }
    std::printf("\n");

    std::printf("\nShape check (paper): Glider's average weighted "
                "speedup leads Hawkeye/MPPPB, with SHiP++ last among "
                "the four.\n");
    report.write();
    return report.degraded() ? 2 : 0;
}
