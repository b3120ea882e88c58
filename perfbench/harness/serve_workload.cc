/**
 * @file
 * serve-tail: the serving layer under an open loop and at saturation.
 *
 * Operations are Advise/Train requests whose PCs and Train labels come
 * from a workload's LLC access stream and its Belady (MIN) decisions;
 * each is sent for a tenant drawn from a Zipf mix over thousands of
 * tenants, so new tail tenants keep arriving through the run.
 *
 *  - Open loop: one generator thread offers a fixed ladder of rates to
 *    one engine with two shards; latency runs from each request's due
 *    time to its answer. The sustained rate is the highest rung whose
 *    p99 meets kP99LimitUs with nothing failed and no growing backlog.
 *  - Saturation: a fixed batch of operations, repeated, through a
 *    second engine whose tenants set-up built, kWindow in flight, as
 *    fast as the engine answers. The median pass's time is sweep_s
 *    and its rate throughput_mops. Each pass, like each set-up, sits
 *    between two runs of the host probe and is timed in
 *    host-normalised seconds (harness/host_probe.hh).
 *
 * Self-checks: every accepted request is answered with status Ok, and
 * two sampled tenants' Advise scores over all saturation passes equal
 * a standalone TenantServer replay of the same requests.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <map>
#include <thread>

#include "common/hash.hh"
#include "common/rng.hh"
#include "common/zipf.hh"
#include "harness/common.hh"
#include "harness/host_probe.hh"
#include "harness/loadgen.hh"
#include "harness/stats.hh"
#include "opt/belady.hh"
#include "opt/llc_stream.hh"
#include "serve/advice_engine.hh"

namespace perfbench {

namespace {

using namespace glider;

constexpr std::uint64_t kPcAccesses = 300'000; //!< source trace length
constexpr std::size_t kTenants = 2048;
constexpr double kZipfS = 0.9;
constexpr double kTrainFraction = 0.3;
constexpr unsigned kShards = 2;
constexpr std::size_t kQueueCapacity = 16384;
/** Offered rates of the open-loop ladder, ops/s. */
constexpr double kLadder[] = {50'000, 200'000, 800'000};
constexpr double kP99LimitUs = 200.0;
/** Share of the run's time each ladder rung lasts, up to kRungOps. */
constexpr double kRungShare = 0.12;
constexpr std::size_t kRungOps = 250'000;
constexpr std::size_t kSaturationOps = 300'000;
constexpr std::size_t kWindow = 1024;
/** Requests of the first traced saturation pass that get spans. */
constexpr std::size_t kSpannedOps = 50'000;
/** How long to wait for outstanding answers before failing them. */
constexpr double kAnswerTimeoutS = 10.0;

/** One pre-generated operation. */
struct Op
{
    std::uint64_t tenant = 0;
    std::uint64_t pc = 0;
    bool train = false;
    bool opt_hit = false;
};

serve::EngineConfig
engineConfig()
{
    serve::EngineConfig cfg;
    cfg.shards = kShards;
    cfg.queue_capacity = kQueueCapacity;
    return cfg;
}

/** The request PCs and MIN labels every operation stream draws from. */
struct PcStream
{
    std::vector<std::uint64_t> pcs;
    std::vector<std::uint8_t> opt_labels;
};

PcStream
buildPcStream(std::uint64_t seed)
{
    auto trace = generateTrace("mcf", kPcAccesses, seed);
    sim::HierarchyConfig cfg;
    auto llc = opt::extractLlcStream(trace, cfg);
    auto min = opt::simulateBelady(llc, cfg.llc.sets(), cfg.llc.ways);
    PcStream s;
    s.pcs.reserve(llc.size());
    for (const auto &rec : llc)
        s.pcs.push_back(rec.pc);
    s.opt_labels = std::move(min.labels);
    return s;
}

/** @p n operations walking the PC stream from @p cursor, seeded. */
std::vector<Op>
makeOps(const PcStream &stream, const ZipfPicker &zipf, Rng &rng,
        std::size_t &cursor, std::size_t n)
{
    std::vector<Op> ops(n);
    for (auto &op : ops) {
        op.tenant = 1 + zipf.pick(rng);
        op.pc = stream.pcs[cursor];
        op.train = rng.chance(kTrainFraction);
        op.opt_hit = op.train && stream.opt_labels[cursor] != 0;
        cursor = cursor + 1 == stream.pcs.size() ? 0 : cursor + 1;
    }
    return ops;
}

serve::AdviceRequest
requestOf(const Op &op, serve::AdviceResponse *slot,
          std::atomic<std::uint64_t> *done)
{
    serve::AdviceRequest req;
    req.tenant = op.tenant;
    req.pc = op.pc;
    req.kind = op.train ? serve::RequestKind::Train
                        : serve::RequestKind::Advise;
    req.opt_hit = op.opt_hit;
    req.response = slot;
    req.done = done;
    return req;
}

/** Wait until @p done reaches @p target or the timeout passes. */
bool
awaitAnswers(const std::atomic<std::uint64_t> &done, std::uint64_t target)
{
    std::uint64_t t0 = nowNs();
    while (done.load(std::memory_order_acquire) < target) {
        if (secondsSince(t0) > kAnswerTimeoutS)
            return false;
        std::this_thread::yield();
    }
    return true;
}

/** Outcome of one open-loop rung. */
struct Rung
{
    double rate = 0.0;
    LoadLedger ledger;
    std::size_t backlog = 0; //!< unanswered when the last op was sent
    double submit_ns = 0.0;  //!< mean time inside submit()
};

Rung
runRung(serve::AdviceEngine &engine, const std::vector<Op> &ops,
        double rate, Report &report)
{
    Rung rung;
    rung.rate = rate;
    std::vector<serve::AdviceResponse> slots(ops.size());
    std::vector<std::uint64_t> due(ops.size()), sent(ops.size());
    std::vector<std::uint8_t> accepted(ops.size(), 0);
    std::atomic<std::uint64_t> done{0};
    std::uint64_t n_accepted = 0, submit_ns = 0;

    std::uint64_t start = nowNs() + 1'000'000; // 1 ms to get going
    for (std::size_t i = 0; i < ops.size(); ++i) {
        due[i] = dueNs(start, rate, i);
        while (nowNs() < due[i]) {
        }
        sent[i] = nowNs();
        bool ok = engine.submit(requestOf(ops[i], &slots[i], &done));
        submit_ns += nowNs() - sent[i];
        accepted[i] = ok ? 1 : 0;
        n_accepted += ok ? 1 : 0;
    }
    std::uint64_t last_sent = sent.empty() ? 0 : sent.back();
    bool all = awaitAnswers(done, n_accepted);
    report.check(all, "open loop: accepted requests left unanswered");
    if (!all)
        engine.stop(); // its workers still point into slots and done
    report.attempted += ops.size();

    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (!accepted[i] || !all || slots[i].served_ns == 0
            || slots[i].status != serve::ResponseStatus::Ok) {
            rung.ledger.lost(due[i], sent[i]);
            ++report.failed;
        } else {
            rung.ledger.answered(due[i], sent[i], slots[i].served_ns);
            if (slots[i].served_ns > last_sent)
                ++rung.backlog;
        }
    }
    rung.submit_ns = ops.empty() ? 0.0
                                 : static_cast<double>(submit_ns)
            / static_cast<double>(ops.size());
    return rung;
}

/**
 * Push @p ops through @p engine as fast as it answers, kWindow in
 * flight, and wait for every answer (a closed loop: the harness sends
 * the next request only when a window slot frees). @return host
 * seconds; @p answered is false when some answer never came.
 */
double
runClosed(serve::AdviceEngine &engine, const std::vector<Op> &ops,
          std::vector<serve::AdviceResponse> &slots, SpanLog &log,
          bool per_op_spans, bool &answered)
{
    slots.assign(ops.size(), serve::AdviceResponse{});
    std::size_t spanned = per_op_spans ? std::min(ops.size(), kSpannedOps)
                                       : 0;
    std::vector<std::uint64_t> sent(spanned), sent_end(spanned);
    std::atomic<std::uint64_t> done{0};
    std::uint32_t pass_span = log.begin("serve.saturation");
    std::uint64_t t0 = nowNs();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        while (i - done.load(std::memory_order_acquire) >= kWindow) {
        }
        auto req = requestOf(ops[i], &slots[i], &done);
        std::uint64_t s0 = i < spanned ? nowNs() : 0;
        while (!engine.submit(req)) {
        }
        if (i < spanned) {
            sent[i] = s0;
            sent_end[i] = nowNs();
        }
    }
    answered = awaitAnswers(done, ops.size());
    double seconds = secondsSince(t0);
    if (!answered)
        engine.stop(); // its workers still point into slots and done
    log.end(pass_span);
    for (std::size_t i = 0; i < spanned; ++i) {
        log.record("serve.submit", pass_span, sent[i], sent_end[i], i);
        log.record("serve.advice", pass_span, sent[i], slots[i].served_ns,
                   i);
    }
    return seconds;
}

/**
 * The serial reference for one tenant: a standalone TenantServer fed
 * the same requests the engine gets, pass by pass, whose Advise
 * scores the engine's answers must equal.
 */
class StandaloneTenant
{
  public:
    explicit StandaloneTenant(std::uint64_t tenant)
        : tenant_(tenant), server_(engineConfig().predictor)
    {
    }

    std::uint64_t tenant() const { return tenant_; }

    /**
     * Serve this tenant's requests in @p ops. With @p engine set (the
     * engine's answers to @p ops), @return how many Advise scores
     * differ from them.
     */
    std::size_t
    feed(const std::vector<Op> &ops,
         const std::vector<serve::AdviceResponse> *engine)
    {
        std::vector<std::size_t> idx;
        for (std::size_t i = 0; i < ops.size(); ++i) {
            if (ops[i].tenant == tenant_)
                idx.push_back(i);
        }
        std::atomic<std::uint64_t> done{0};
        std::vector<serve::AdviceResponse> slots(idx.size());
        std::vector<serve::AdviceRequest> reqs;
        for (std::size_t k = 0; k < idx.size(); ++k)
            reqs.push_back(requestOf(ops[idx[k]], &slots[k], &done));
        std::vector<const serve::AdviceRequest *> run;
        for (const auto &r : reqs)
            run.push_back(&r);
        server_.processRun(server_.tenant(tenant_), run);
        std::size_t differ = 0;
        for (std::size_t k = 0; engine != nullptr && k < idx.size(); ++k) {
            if (!ops[idx[k]].train
                && (*engine)[idx[k]].score != slots[k].score)
                ++differ;
        }
        return differ;
    }

  private:
    std::uint64_t tenant_;
    serve::TenantServer server_;
};

std::string
rungName(double rate)
{
    return "serve.at" + std::to_string(static_cast<int>(rate / 1000)) + "k";
}

} // namespace

void
runServeTail(const Options &opts, SpanLog &spans, Report &report)
{
    SpanLog off(false);
    SpanLog &setup_log = opts.trace ? spans : off;
    const double rung_s = kRungShare * opts.seconds;

    struct Inputs
    {
        std::vector<std::vector<Op>> ladder; //!< one stream per rung
        std::vector<Op> warmup;     //!< one Advise per tenant
        std::vector<Op> saturation; //!< one saturation pass
        std::unique_ptr<serve::AdviceEngine> ladder_engine;
        std::unique_ptr<serve::AdviceEngine> engine; //!< tenants built
    };
    Inputs in;
    HostProbe probe;
    std::vector<double> setup_s;
    std::uint64_t records = 0;
    bool warm = true;
    for (int k = 0; k < kSetupRepeats; ++k) {
        in = Inputs();
        probe.begin();
        std::uint64_t t0 = nowNs();
        ScopedSpan span(setup_log, "setup");
        PcStream stream;
        {
            ScopedSpan gen(setup_log, "workloads.gen:mcf");
            stream = buildPcStream(opts.seed);
        }
        records = stream.pcs.size();
        ZipfPicker zipf(kTenants, kZipfS);
        Rng rng(hashCombine(opts.seed, 0x5E7E7A11ull));
        std::size_t cursor = 0;
        for (double rate : kLadder)
            in.ladder.push_back(makeOps(
                stream, zipf, rng, cursor,
                std::min(kRungOps, static_cast<std::size_t>(rate * rung_s))));
        in.saturation = makeOps(stream, zipf, rng, cursor, kSaturationOps);
        for (std::size_t t = 0; t < kTenants; ++t)
            in.warmup.push_back({1 + t, stream.pcs[t % stream.pcs.size()],
                                 false, false});
        {
            // Engines and the saturation engine's tenants: the ladder
            // engine starts empty so its tenants accumulate while it
            // runs.
            ScopedSpan init(setup_log, "serve.engine_init");
            in.ladder_engine =
                std::make_unique<serve::AdviceEngine>(engineConfig());
            in.engine = std::make_unique<serve::AdviceEngine>(engineConfig());
            std::vector<serve::AdviceResponse> slots;
            bool answered = false;
            runClosed(*in.engine, in.warmup, slots, off, false, answered);
            warm = warm && answered;
        }
        setup_s.push_back(probe.normalise(secondsSince(t0)));
    }
    report.e2e("setup_s", median(setup_s), "s");
    report.attempted += in.warmup.size();
    report.check(warm, "tenant warm-up left requests unanswered");

    // Open-loop ladder against one engine whose tenants accumulate.
    std::uint64_t measure_t0 = nowNs();
    double sustained = 0.0, submit_ns = 0.0, lag_p99 = 0.0;
    for (std::size_t r = 0; r < std::size(kLadder); ++r) {
        Rung rung =
            runRung(*in.ladder_engine, in.ladder[r], kLadder[r], report);
        Percentile p50 = rung.ledger.latencyUs(50);
        Percentile p99 = rung.ledger.latencyUs(99);
        Percentile lag99 = rung.ledger.lagUs(99);
        // Little's law: more requests in flight than rate x limit means
        // requests queue beyond the limit, so the backlog is growing.
        bool backlog_ok = static_cast<double>(rung.backlog)
            <= rung.rate * kP99LimitUs / 1e6 + 1.0;
        bool met = p99.value <= kP99LimitUs && rung.ledger.failed() == 0
            && backlog_ok;
        if (met)
            sustained = rung.rate;
        submit_ns += rung.submit_ns / static_cast<double>(std::size(kLadder));
        std::printf("  open loop %6.0f ops/s: p50 %.2f us  p99 %.2f us "
                    "(n=%zu, %zu beyond)  lag p99 %.2f us  backlog %zu  "
                    "failed %zu  %s\n",
                    rung.rate, p50.value, p99.value, p99.samples,
                    p99.beyond, lag99.value, rung.backlog,
                    rung.ledger.failed(), met ? "meets limit" : "misses");
        std::string base = rungName(rung.rate);
        report.layer(base + ".p50_us", p50.value, "us");
        report.layer(base + ".p99_us", p99.value, "us");
        report.layer(base + ".samples", static_cast<double>(p99.samples),
                     "count");
        lag_p99 = std::max(lag_p99, lag99.value);
    }
    in.ladder_engine->stop();
    auto stats = in.ladder_engine->stats();
    std::size_t tenants = 0;
    for (std::size_t s = 0; s < in.ladder_engine->shards(); ++s)
        tenants += in.ladder_engine->server(s).tenants().size();
    in.ladder_engine.reset();
    std::printf("  sustained %.0f ops/s at p99 <= %.0f us; %zu tenants\n",
                sustained, kP99LimitUs, tenants);

    // Saturation passes through the warm engine: untraced, then (traced
    // run) traced. The hottest tenant and the busiest tenant of the
    // tail's second half are checked against a standalone replay.
    std::map<std::uint64_t, std::size_t> tail_ops;
    for (const auto &op : in.saturation) {
        if (op.tenant > kTenants / 2)
            ++tail_ops[op.tenant];
    }
    std::uint64_t tail = 0;
    std::size_t most = 0;
    for (const auto &[tenant, n] : tail_ops) {
        if (n > most) {
            most = n;
            tail = tenant;
        }
    }
    StandaloneTenant reference[2] = {StandaloneTenant(1),
                                     StandaloneTenant(tail)};
    for (auto &ref : reference)
        ref.feed(in.warmup, nullptr);
    std::size_t passes = 0;
    // The saturation passes get the rest of the run's time (a rung
    // that reaches kRungOps ends early), halved in a traced run.
    double budget =
        std::max(opts.seconds - secondsSince(measure_t0), 0.0)
        * (opts.trace ? 0.5 : 1.0);
    std::vector<serve::AdviceResponse> slots;
    std::vector<double> walls; //!< untraced and traced passes' wall time
    auto loop = [&](SpanLog &log, bool traced) {
        std::vector<double> secs;
        std::uint64_t t0 = nowNs();
        while (secs.size() < 3 || secondsSince(t0) < budget) {
            bool answered = false;
            probe.begin();
            double wall = runClosed(*in.engine, in.saturation, slots, log,
                                    traced && secs.empty(), answered);
            walls.push_back(wall);
            double s = probe.normalise(wall);
            ++passes;
            report.attempted += in.saturation.size();
            std::size_t bad = 0;
            for (const auto &a : slots)
                bad += a.served_ns == 0
                    || a.status != serve::ResponseStatus::Ok;
            report.failed += bad;
            report.check(answered && bad == 0,
                         "saturation pass " + std::to_string(passes)
                             + " left requests unanswered or failed");
            for (auto &ref : reference) {
                ++report.attempted;
                report.check(ref.feed(in.saturation, &slots) == 0,
                             "pass " + std::to_string(passes) + ": tenant "
                                 + std::to_string(ref.tenant())
                                 + " scores differ from a standalone "
                                   "replay");
            }
            secs.push_back(s);
        }
        return secs;
    };
    auto untraced = loop(off, false);
    double wall = median(
        std::vector<double>(walls.begin(), walls.begin() + untraced.size()));
    std::vector<double> traced;
    if (opts.trace)
        traced = loop(spans, true);
    in.engine->stop();

    double sweep = median(untraced);
    report.e2e("sweep_s", sweep, "s");
    report.e2e("throughput_mops",
               static_cast<double>(kSaturationOps) / sweep / 1e6, "Mop/s");
    std::printf("  saturation: %zu ops in %.4f host-normalised s, "
                "%.4f wall s (medians of %zu)\n",
                kSaturationOps, sweep, wall, untraced.size());
    reportProbe(report, probe);

    report.layer("workloads.records", static_cast<double>(records),
                 "count");
    report.layer("serve.submit_ns", submit_ns, "ns");
    report.layer("serve.rejected", static_cast<double>(stats.rejected),
                 "count");
    report.layer("serve.ops_per_batch",
                 stats.batches > 0 ? static_cast<double>(stats.served)
                         / static_cast<double>(stats.batches)
                                   : 0.0,
                 "ops");
    report.layer("serve.busy_ns_per_op",
                 stats.served > 0 ? static_cast<double>(stats.busy_ns)
                         / static_cast<double>(stats.served)
                                  : 0.0,
                 "ns");
    report.layer("serve.tenants", static_cast<double>(tenants), "count");
    report.layer("serve.sustained_ops_s", sustained, "1/s");
    report.layer("loadgen.lag_us.p99", lag_p99, "us");
    if (opts.trace) {
        report.layer("trace.overhead_pct",
                     100.0 * (median(traced) / sweep - 1.0), "%");
        auto totals = spans.totalsByName();
        report.layer("workloads.gen_s",
                     static_cast<double>(totals["workloads.gen:mcf"].busy_ns)
                         / 1e9 / kSetupRepeats,
                     "s");
    }
}

} // namespace perfbench
