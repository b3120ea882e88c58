/**
 * @file
 * The two simulator workloads: fig11-llc (single-core cells under the
 * paper's lineup plus MIN) and private-stream (cache-friendly traces
 * replayed from gtrace files). Each run sets up its inputs
 * kSetupRepeats times, then repeats the workload's fixed cell set
 * ("pass") until the run's time is spent and reports the median pass.
 * Every set-up and every cell (building its source and policy, MIN's
 * LLC-stream extraction, the replay) sits between two runs of the host
 * probe and is reported in host-normalised seconds
 * (harness/host_probe.hh).
 *
 * A traced run spends the first part of its time on untraced passes
 * and the second on passes through the timing decorators, then runs
 * the cumulative-stage probe. The simulator is deterministic, so
 * every pass, traced or not, must reproduce the first pass's
 * simulated counts exactly; that is one of the self-checks.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <stdexcept>

#include "cachesim/access_source.hh"
#include "cachesim/core_model.hh"
#include "cachesim/hierarchy.hh"
#include "cachesim/simulator.hh"
#include "core/policy_factory.hh"
#include "harness/common.hh"
#include "harness/decorators.hh"
#include "harness/host_probe.hh"
#include "harness/stats.hh"
#include "obs/metrics.hh"
#include "opt/belady.hh"
#include "opt/llc_stream.hh"
#include "traces/gtrace.hh"

namespace perfbench {

namespace {

using namespace glider;

// Workload shapes. Trace lengths keep the LLC under capacity pressure
// on fig11-llc and make one pass take well under a second, so a run
// takes the median of many passes.
constexpr std::uint64_t kFig11Accesses = 400'000;
constexpr std::uint64_t kPrivateAccesses = 1'500'000;

/** Simulated outcome of one cell: what must repeat exactly. */
struct Outcome
{
    std::string trace;
    std::string policy;
    sim::CacheStats llc;
    std::uint64_t instructions = 0;
    double cycles = 0.0;
    double ipc = 0.0;

    bool
    sameCounts(const Outcome &o) const
    {
        return llc.accesses == o.llc.accesses && llc.hits == o.llc.hits
            && llc.misses == o.llc.misses
            && llc.bypasses == o.llc.bypasses
            && llc.evictions == o.llc.evictions
            && instructions == o.instructions && cycles == o.cycles
            && ipc == o.ipc;
    }
};

Outcome
outcomeOf(const sim::SingleCoreResult &r, const std::string &policy)
{
    return {r.workload, policy, r.llc, r.instructions, r.cycles, r.ipc};
}

/**
 * One pass over a workload's cell set. Its cells tile the pass, so
 * sweep_s is their sum; times are host-normalised seconds.
 */
struct Pass
{
    double sweep_s = 0.0;     //!< every cell of the pass
    double replay_s = 0.0;    //!< the replay calls within them
    double wall_s = 0.0;      //!< the pass's wall time, probes excluded
    std::uint64_t accesses = 0; //!< CPU accesses replayed
    std::vector<Outcome> outcomes;
};

/** Sums the traced passes' counters of one policy. */
struct PolicyAcc
{
    HookTally hooks;
    sim::CacheStats llc;
};

/** Glider internals summed over traced replays. */
struct GliderAcc
{
    std::uint64_t events = 0;
    std::uint64_t correct = 0;
    std::uint64_t train_updates = 0;
    std::uint64_t hit_intervals = 0;
    std::uint64_t miss_intervals = 0;
};

std::uint64_t
counterOr0(obs::Registry &reg, const std::string &name)
{
    return reg.has(name) ? reg.counter(name).value() : 0;
}

/** State shared by the pieces of one simulator run. */
struct SimRun
{
    SimRun(const Options &o, SpanLog &s, Report &r)
        : opts(o), spans(s), report(r)
    {
    }

    const Options &opts;
    SpanLog &spans;
    Report &report;
    bool traced = false; //!< current phase records spans
    std::uint64_t next_cell = 0;
    SpanLog off{false};

    /** The span log while traced, a disabled one otherwise. */
    SpanLog &log() { return traced ? spans : off; }

    std::map<std::string, PolicyAcc> policies;
    GliderAcc glider;
    std::uint64_t decoded_chunks = 0; //!< gtrace chunks decoded
    HostProbe probe;

    /**
     * Close a cell of @p pass that started at @p cell_t0 (the host
     * probe last ran right before it) and whose replay call took
     * @p replay_wall of it: both go into the pass in host-normalised
     * seconds.
     */
    void
    cellDone(Pass &pass, std::uint64_t cell_t0, double replay_wall)
    {
        double wall = secondsSince(cell_t0);
        double f = probe.factor();
        pass.wall_s += wall;
        pass.sweep_s += wall * f;
        pass.replay_s += replay_wall * f;
    }

    /**
     * Run one single-core cell, which started at @p cell_t0 (before
     * its inputs were built). In the traced phase the source and
     * policy go through the timing decorators and the replay gets a
     * span with the decorators' time as aggregate children.
     */
    Outcome
    replay(sim::AccessSource &src, bool streamed,
           const std::string &policy,
           std::unique_ptr<sim::ReplacementPolicy> impl,
           const sim::SimOptions &so, Pass &pass, std::uint64_t cell_t0)
    {
        ++report.attempted;
        std::string pname = metricName(policy);
        std::uint64_t t0 = nowNs();
        if (!traced) {
            auto r = sim::runSingleCore(src, std::move(impl), so);
            cellDone(pass, cell_t0, secondsSince(t0));
            pass.accesses += r.accesses_simulated;
            return outcomeOf(r, pname);
        }
        SourceTally st;
        HookTally ht;
        obs::Registry exported;
        sim::SingleCoreResult r;
        std::uint32_t id;
        {
            ScopedSpan span(log(), "cachesim.replay:" + pname,
                            next_cell++);
            id = span.id();
            TimedSource ts(src, st);
            r = sim::runSingleCore(
                ts, std::make_unique<TimedPolicy>(std::move(impl), ht,
                                                  &exported),
                so);
        }
        cellDone(pass, cell_t0, secondsSince(t0));
        pass.accesses += r.accesses_simulated;
        noteTraced(id, streamed, st, pname, ht, r.llc, exported);
        return outcomeOf(r, pname);
    }

    void
    noteTraced(std::uint32_t id, bool streamed, const SourceTally &st,
               const std::string &pname, const HookTally &ht,
               const sim::CacheStats &llc, obs::Registry &exported)
    {
        std::uint64_t source_ns = lessClock(st.ns, st.calls);
        std::uint64_t hook_ns = lessClock(ht.ns, ht.calls());
        spans.aggregate(streamed ? "traces.decode" : "traces.memory", id,
                        source_ns, st.calls);
        spans.aggregate("policies." + pname + ".hooks", id, hook_ns,
                        ht.calls());
        if (streamed)
            decoded_chunks += st.chunks;
        PolicyAcc &acc = policies[pname];
        acc.hooks.ns += hook_ns;
        acc.hooks.hits += ht.hits;
        acc.hooks.misses += ht.misses;
        acc.hooks.bypasses += ht.bypasses;
        acc.hooks.evicts += ht.evicts;
        acc.hooks.inserts += ht.inserts;
        acc.llc.accesses += llc.accesses;
        acc.llc.hits += llc.hits;
        acc.llc.misses += llc.misses;
        acc.llc.bypasses += llc.bypasses;
        acc.llc.evictions += llc.evictions;
        if (pname == "Glider") {
            glider.events += counterOr0(exported, "policy.accuracy.events");
            glider.correct +=
                counterOr0(exported, "policy.accuracy.correct");
            glider.train_updates +=
                counterOr0(exported, "policy.predictor.train_updates");
            glider.hit_intervals +=
                counterOr0(exported, "policy.optgen.hit_intervals");
            glider.miss_intervals +=
                counterOr0(exported, "policy.optgen.miss_intervals");
        }
    }

    /**
     * Run @p setup kSetupRepeats times, each from scratch and between
     * two host probes, and report the median host-normalised time as
     * setup_s. @return the last set-up's inputs.
     */
    template <typename Inputs>
    Inputs
    timedSetup(const std::function<Inputs()> &setup)
    {
        traced = opts.trace;
        std::vector<double> secs;
        Inputs inputs;
        for (int k = 0; k < kSetupRepeats; ++k) {
            inputs = Inputs(); // release the previous inputs first
            probe.begin();
            std::uint64_t t0 = nowNs();
            {
                ScopedSpan span(log(), "setup");
                inputs = setup();
            }
            secs.push_back(probe.normalise(secondsSince(t0)));
        }
        report.e2e("setup_s", median(secs), "s");
        traced = false;
        return inputs;
    }

    /** Time one input-building step as a span of the set-up. */
    template <typename F>
    auto
    step(const std::string &name, F &&fn)
    {
        ScopedSpan span(log(), name);
        return fn();
    }

    /**
     * Repeat @p run_pass until the run's time is spent (at least
     * three passes); in a traced run, the second part of the time
     * goes to traced passes. Checks that every pass reproduces the
     * first pass's simulated counts, and reports sweep_s,
     * throughput_mops and (traced) the tracing overhead.
     */
    void
    measure(const std::function<Pass()> &run_pass,
            std::vector<Pass> &untraced_out)
    {
        double untraced_budget = opts.trace ? 0.4 * opts.seconds
                                            : opts.seconds;
        auto loop = [&](double budget, int min_passes) {
            std::vector<Pass> passes;
            std::uint64_t t0 = nowNs();
            while (static_cast<int>(passes.size()) < min_passes
                   || secondsSince(t0) < budget) {
                Pass p;
                probe.begin();
                {
                    ScopedSpan span(log(), "pass");
                    p = run_pass();
                }
                passes.push_back(std::move(p));
            }
            return passes;
        };
        traced = false;
        auto untraced = loop(untraced_budget, opts.trace ? 2 : 3);
        std::vector<Pass> traced_passes;
        if (opts.trace) {
            traced = true;
            traced_passes = loop(0.4 * opts.seconds, 2);
            traced = false;
        }

        const Pass &ref = untraced.front();
        auto compare = [&](const std::vector<Pass> &ps, const char *kind) {
            for (std::size_t i = 0; i < ps.size(); ++i) {
                bool same = ps[i].outcomes.size() == ref.outcomes.size()
                    && ps[i].accesses == ref.accesses;
                for (std::size_t c = 0; same && c < ref.outcomes.size();
                     ++c)
                    same = ps[i].outcomes[c].sameCounts(ref.outcomes[c]);
                report.check(same, std::string(kind) + " pass "
                                 + std::to_string(i)
                                 + " changed simulated counts");
            }
        };
        compare(untraced, "untraced");
        compare(traced_passes, "traced");

        std::vector<double> sweep, replay, wall;
        for (const auto &p : untraced) {
            sweep.push_back(p.sweep_s);
            replay.push_back(p.replay_s);
            wall.push_back(p.wall_s);
        }
        std::printf("pass seconds, host-normalised:");
        for (double v : sweep)
            std::printf(" %.4f", v);
        std::printf("\npass seconds, wall:");
        for (double v : wall)
            std::printf(" %.4f", v);
        std::printf("\n");
        reportProbe(report, probe);
        report.e2e("sweep_s", median(sweep), "s");
        // Every pass replays the same accesses (checked above).
        report.e2e("throughput_mops",
                   static_cast<double>(ref.accesses) / median(replay) / 1e6,
                   "Mop/s");
        std::printf("passes: %zu untraced, %zu traced; %llu CPU accesses "
                    "per pass\n",
                    untraced.size(), traced_passes.size(),
                    static_cast<unsigned long long>(ref.accesses));
        if (opts.trace) {
            std::vector<double> treplay;
            for (const auto &p : traced_passes)
                treplay.push_back(p.replay_s);
            report.layer("trace.overhead_pct",
                         100.0 * (median(treplay) / median(replay) - 1.0),
                         "%");
            layerMetrics(static_cast<double>(traced_passes.size()));
        }
        untraced_out = std::move(untraced);
    }

    /** Per-layer metrics from the traced passes, per pass. */
    void
    layerMetrics(double passes)
    {
        auto totals = spans.totalsByName();
        auto sum = [&](const std::string &prefix, bool self) {
            std::uint64_t ns = 0;
            for (const auto &[name, t] : totals) {
                if (name.rfind(prefix, 0) == 0)
                    ns += self ? t.self_ns : t.busy_ns;
            }
            return static_cast<double>(ns) / 1e9;
        };
        auto setups = static_cast<double>(kSetupRepeats);
        report.layer("workloads.gen_s", sum("workloads.gen:", false) / setups,
                     "s");
        report.layer("traces.encode_s",
                     sum("traces.encode:", false) / setups, "s");
        report.layer("cachesim.replay_s",
                     sum("cachesim.replay:", false) / passes, "s");
        report.layer("cachesim.self_s",
                     sum("cachesim.replay:", true) / passes, "s");
        report.layer("traces.decode_s", sum("traces.decode", false) / passes,
                     "s");
        report.layer("traces.chunks",
                     static_cast<double>(decoded_chunks) / passes, "count");
        report.layer("opt.extract_s", sum("opt.extract", false) / passes,
                     "s");
        report.layer("opt.min_replay_s",
                     sum("cachesim.replay:MIN", false) / passes, "s");
        report.layer("policies.hook_s", sum("policies.", false) / passes,
                     "s");
        for (const auto &[pname, acc] : policies) {
            std::string base = "policies." + pname;
            auto llc_acc = static_cast<double>(acc.hooks.llcAccesses());
            report.layer(base + ".hook_ns_per_llc_access",
                         llc_acc > 0 ? static_cast<double>(acc.hooks.ns)
                                 / llc_acc
                                     : 0.0,
                         "ns");
            report.layer(base + ".hook_calls",
                         static_cast<double>(acc.hooks.calls()) / passes,
                         "count");
            report.layer(base + ".llc_hit_frac",
                         ratio(acc.llc.hits, acc.llc.accesses), "ratio");
            report.layer(base + ".bypass_frac",
                         ratio(acc.llc.bypasses, acc.llc.misses), "ratio");
        }
        if (glider.events > 0) {
            report.layer("policies.Glider.accuracy.online",
                         ratio(glider.correct, glider.events), "ratio");
            report.layer("policies.Glider.predictor.train_updates",
                         static_cast<double>(glider.train_updates) / passes,
                         "count");
            report.layer("opt.optgen.hit_intervals",
                         static_cast<double>(glider.hit_intervals) / passes,
                         "count");
            report.layer("opt.optgen.miss_intervals",
                         static_cast<double>(glider.miss_intervals)
                             / passes,
                         "count");
        }
    }

    static double
    ratio(std::uint64_t num, std::uint64_t den)
    {
        return den > 0 ? static_cast<double>(num) / static_cast<double>(den)
                       : 0.0;
    }
};

/**
 * Cumulative-stage probe over one source: (1) the source alone,
 * (2) plus Hierarchy::access with an LRU LLC, (3) plus
 * CoreModel::step. Timing every access would cost as much as the
 * access, so the per-layer cost is the difference between stages.
 */
struct StageProbe
{
    double stage_ns[3] = {0.0, 0.0, 0.0}; //!< median per stage
    std::uint64_t accesses = 0;
    std::uint64_t depth[4] = {0, 0, 0, 0}; //!< L1, L2, LLC, DRAM
    std::uint64_t checksum = 0; //!< stage 1's work, kept observable

    void
    run(sim::AccessSource &src, const sim::SimOptions &so)
    {
        constexpr int kReps = 3;
        std::vector<double> ns[3];
        for (int rep = 0; rep < kReps; ++rep) {
            for (int stage = 0; stage < 3; ++stage) {
                sim::Hierarchy hier(so.hierarchy, 1,
                                    core::makePolicy("LRU"));
                sim::CoreModel core(so.core);
                std::uint64_t depth_count[4] = {0, 0, 0, 0};
                std::uint64_t n = 0;
                std::uint64_t t0 = nowNs();
                src.rewind();
                for (auto chunk = src.nextChunk(); !chunk.empty();
                     chunk = src.nextChunk()) {
                    for (const auto &rec : chunk) {
                        ++n;
                        if (stage == 0) {
                            checksum += rec.address ^ rec.pc;
                            continue;
                        }
                        auto d = hier.access(0, rec.pc, rec.address,
                                             rec.is_write);
                        ++depth_count[static_cast<int>(d)];
                        if (stage == 2)
                            core.step(d, hier.latency(d));
                    }
                }
                ns[stage].push_back(static_cast<double>(nowNs() - t0));
                if (rep == 0 && stage == 1) {
                    accesses = n;
                    std::copy(depth_count, depth_count + 4, depth);
                }
            }
        }
        for (int s = 0; s < 3; ++s)
            stage_ns[s] = median(ns[s]);
    }
};

/** Report the stage probes summed over a workload's sources. */
void
reportStages(Report &report, const std::vector<StageProbe> &probes)
{
    double n = 0, walk = 0, core_ns = 0;
    std::uint64_t depth[4] = {0, 0, 0, 0};
    for (const auto &p : probes) {
        n += static_cast<double>(p.accesses);
        walk += p.stage_ns[1] - p.stage_ns[0];
        core_ns += p.stage_ns[2] - p.stage_ns[1];
        for (int d = 0; d < 4; ++d)
            depth[d] += p.depth[d];
    }
    report.layer("cachesim.walk_ns_per_access", n > 0 ? walk / n : 0.0,
                 "ns");
    report.layer("cachesim.core_model_ns_per_access",
                 n > 0 ? core_ns / n : 0.0, "ns");
    const char *names[4] = {"l1", "l2", "llc", "dram"};
    for (int d = 0; d < 4; ++d)
        report.layer(std::string("cachesim.depth.") + names[d],
                     static_cast<double>(depth[d]), "count");
}

const Outcome *
findOutcome(const Pass &pass, const std::string &trace,
            const std::string &policy)
{
    for (const auto &o : pass.outcomes) {
        if (o.trace == trace && o.policy == policy)
            return &o;
    }
    return nullptr;
}

/**
 * Simulated Glider-vs-LRU figures over single-core traces: mean LLC
 * miss reduction and geometric-mean IPC gain, in percent.
 */
void
reportGliderVsLru(SimRun &run, const Pass &pass,
                  const std::vector<std::string> &traces)
{
    double reduction = 0.0, log_speedup = 0.0;
    for (const auto &t : traces) {
        const Outcome *lru = findOutcome(pass, t, "LRU");
        const Outcome *gl = findOutcome(pass, t, "Glider");
        if (lru == nullptr || gl == nullptr || lru->llc.misses == 0) {
            run.report.check(false, "no LRU/Glider pair for " + t);
            return;
        }
        reduction += 100.0
            * (static_cast<double>(lru->llc.misses)
               - static_cast<double>(gl->llc.misses))
            / static_cast<double>(lru->llc.misses);
        log_speedup += std::log(gl->ipc / lru->ipc);
        std::printf("  %-9s LRU misses %9llu  Glider misses %9llu  "
                    "IPC %.4f -> %.4f\n",
                    t.c_str(),
                    static_cast<unsigned long long>(lru->llc.misses),
                    static_cast<unsigned long long>(gl->llc.misses),
                    lru->ipc, gl->ipc);
    }
    auto n = static_cast<double>(traces.size());
    double red = reduction / n;
    double spd = 100.0 * (std::exp(log_speedup / n) - 1.0);
    std::printf("simulated (unvalidated model): glider_miss_reduction_pct "
                "%.4f  glider_ipc_speedup_pct %.4f\n",
                red, spd);
    run.report.layer("sim.glider_miss_reduction_pct", red, "%");
    run.report.layer("sim.glider_ipc_speedup_pct", spd, "%");
}

std::vector<std::string>
lineupWithLru()
{
    std::vector<std::string> p{"LRU"};
    auto lineup = core::paperLineup();
    p.insert(p.end(), lineup.begin(), lineup.end());
    return p;
}

using TraceSet = std::vector<traces::Trace>;

TraceSet
generateAll(SimRun &run, const std::vector<std::string> &names,
            std::uint64_t accesses)
{
    TraceSet out;
    for (const auto &name : names)
        out.push_back(run.step("workloads.gen:" + name, [&] {
            return generateTrace(name, accesses, run.opts.seed);
        }));
    return out;
}

void
reportRecords(Report &report, const TraceSet &traces)
{
    std::uint64_t n = 0;
    for (const auto &t : traces)
        n += t.size();
    report.layer("workloads.records", static_cast<double>(n), "count");
}

} // namespace

void
runFig11Llc(const Options &opts, SpanLog &spans, Report &report)
{
    SimRun run(opts, spans, report);
    const std::vector<std::string> names{"mcf", "sphinx3", "bfs"};
    TraceSet traces = run.timedSetup<TraceSet>(
        [&] { return generateAll(run, names, kFig11Accesses); });
    reportRecords(report, traces);

    const sim::SimOptions so;
    const auto policies = lineupWithLru();
    std::uint64_t stream_records = 0;
    auto pass = [&] {
        Pass p;
        stream_records = 0;
        for (const auto &t : traces) {
            for (const auto &pol : policies) {
                std::uint64_t t0 = nowNs();
                sim::TraceSource src(t);
                p.outcomes.push_back(run.replay(src, false, pol,
                                                core::makePolicy(pol), so,
                                                p, t0));
            }
            // MIN's cell includes extracting the LLC stream it needs.
            ++report.attempted;
            std::uint64_t t0 = nowNs();
            auto stream = run.step("opt.extract", [&] {
                return opt::extractLlcStream(t, so.hierarchy);
            });
            stream_records += stream.size();
            sim::TraceSource src(t);
            p.outcomes.push_back(run.replay(
                src, false, "MIN",
                std::make_unique<opt::BeladyPolicy>(stream), so, p, t0));
        }
        return p;
    };
    std::vector<Pass> passes;
    run.measure(pass, passes);
    report.layer("opt.llc_stream_records",
                 static_cast<double>(stream_records), "count");

    // MIN bounds every policy: the hierarchy is non-inclusive, so the
    // LLC sees the same stream under every LLC policy.
    const Pass &ref = passes.front();
    for (const auto &t : traces) {
        const Outcome *min = findOutcome(ref, t.name(), "MIN");
        for (const auto &pol : policies) {
            const Outcome *o = findOutcome(ref, t.name(), metricName(pol));
            report.check(min != nullptr && o != nullptr
                             && min->llc.misses <= o->llc.misses,
                         "MIN misses exceed " + pol + " on " + t.name());
        }
    }
    reportGliderVsLru(run, ref, names);

    if (opts.trace) {
        std::vector<StageProbe> probes(traces.size());
        for (std::size_t i = 0; i < traces.size(); ++i) {
            sim::TraceSource src(traces[i]);
            probes[i].run(src, so);
        }
        reportStages(report, probes);
    }
}

void
runPrivateStream(const Options &opts, SpanLog &spans, Report &report)
{
    SimRun run(opts, spans, report);
    const std::vector<std::string> names{"astar", "tc", "calculix"};
    struct Inputs
    {
        TraceSet traces;
        std::vector<std::string> paths;
        std::uint64_t file_bytes = 0;
    };
    Inputs in = run.timedSetup<Inputs>([&] {
        Inputs i;
        i.traces = generateAll(run, names, kPrivateAccesses);
        for (const auto &t : i.traces) {
            std::string path = opts.workdir + "/" + t.name() + "-"
                + std::to_string(opts.seed) + ".gtrace";
            run.step("traces.encode:" + t.name(), [&] {
                traces::GtraceWriter w;
                if (!w.open(path, t.name()))
                    throw std::runtime_error("cannot create " + path);
                for (const auto &rec : t)
                    w.push(rec);
                if (!w.finish())
                    throw std::runtime_error("cannot write " + path);
                return 0;
            });
            i.file_bytes += std::filesystem::file_size(path);
            i.paths.push_back(path);
        }
        return i;
    });
    reportRecords(report, in.traces);

    const sim::SimOptions so;
    const std::vector<std::string> policies{"LRU", "Glider"};
    auto open = [&](const std::string &path) {
        traces::StreamingTrace st;
        std::string err;
        if (!st.open(path, &err))
            throw std::runtime_error("cannot open " + path + ": " + err);
        return st;
    };
    auto pass = [&] {
        Pass p;
        for (const auto &path : in.paths) {
            for (const auto &pol : policies) {
                std::uint64_t t0 = nowNs();
                sim::StreamingSource src(open(path));
                p.outcomes.push_back(run.replay(
                    src, true, pol, core::makePolicy(pol), so, p, t0));
            }
        }
        return p;
    };
    std::vector<Pass> passes;
    run.measure(pass, passes);

    // Streamed replay must equal the in-memory replay of the same
    // trace, count for count.
    const Pass &ref = passes.front();
    for (const auto &t : in.traces) {
        for (const auto &pol : policies) {
            ++report.attempted;
            auto mem = outcomeOf(
                sim::runSingleCore(t, core::makePolicy(pol), so), pol);
            const Outcome *streamed = findOutcome(ref, t.name(), pol);
            report.check(streamed != nullptr && streamed->sameCounts(mem),
                         "streamed replay differs from in-memory on "
                             + t.name() + "/" + pol);
        }
    }
    reportGliderVsLru(run, ref, names);

    std::uint64_t records = 0;
    for (const auto &t : in.traces)
        records += t.size();
    report.layer("traces.bytes_per_access",
                 static_cast<double>(in.file_bytes)
                     / static_cast<double>(records),
                 "B");
    if (opts.trace) {
        std::vector<StageProbe> probes(in.paths.size());
        for (std::size_t i = 0; i < in.paths.size(); ++i) {
            sim::StreamingSource src(open(in.paths[i]));
            probes[i].run(src, so);
        }
        reportStages(report, probes);
    }
    for (const auto &path : in.paths)
        std::filesystem::remove(path);
}

} // namespace perfbench
