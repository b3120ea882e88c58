/**
 * @file
 * Tests of the benchmark's own helpers: percentiles with their sample
 * counts, self time of nested spans, the timing decorators (which
 * must not change a single simulated count), the open-loop
 * generator's due-time latency and lag accounting, and the host
 * probe's normalisation.
 *
 * Build and run with `python3 perfbench/run.py --test`.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cachesim/simulator.hh"
#include "core/policy_factory.hh"
#include "harness/common.hh"
#include "harness/decorators.hh"
#include "harness/host_probe.hh"
#include "harness/loadgen.hh"
#include "harness/spans.hh"
#include "harness/stats.hh"

namespace perfbench {
namespace {

using namespace glider;

TEST(Percentile, NearestRankWithSampleCount)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i) // unsorted input
        v.push_back(i);
    Percentile p99 = percentile(v, 99);
    EXPECT_EQ(p99.value, 99);
    EXPECT_EQ(p99.samples, 100u);
    EXPECT_EQ(p99.beyond, 1u);
    Percentile p50 = percentile(v, 50);
    EXPECT_EQ(p50.value, 50);
    EXPECT_EQ(p50.beyond, 50u);
    EXPECT_EQ(percentile(v, 100).value, 100);
    EXPECT_EQ(percentile(v, 100).beyond, 0u);
}

TEST(Percentile, SmallAndEmptySamples)
{
    // Ten samples: p99's rank is the last one, nothing lies beyond.
    std::vector<double> v{5, 1, 4, 2, 3, 10, 9, 8, 7, 6};
    Percentile p = percentile(v, 99);
    EXPECT_EQ(p.value, 10);
    EXPECT_EQ(p.beyond, 0u);
    EXPECT_EQ(percentile(v, 10).value, 1);
    Percentile none = percentile({}, 99);
    EXPECT_EQ(none.samples, 0u);
    EXPECT_EQ(none.value, 0);
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(SpanLog, SelfTimeSubtractsUnionOfChildren)
{
    SpanLog log(true);
    const auto root = Span::kNoParent;
    log.record("root", root, 1000, 1100, 0);    // id 0, 100 ns
    log.record("a", 0, 1010, 1040, 1);          // id 1, overlaps b
    log.record("b", 0, 1030, 1060, 2);          // id 2
    log.record("c", 0, 1090, 1120, 3);          // id 3, clipped at 1100
    log.record("a.child", 1, 1015, 1020, 4);    // id 4, under a
    log.aggregate("hooks", 0, 15, 7);           // id 5, folded calls
    auto self = log.selfTimes();
    ASSERT_EQ(self.size(), 6u);
    // Children cover [1010,1060) + [1090,1100) = 60 ns, plus 15 ns of
    // aggregate calls: 100 - 60 - 15.
    EXPECT_EQ(self[0], 25u);
    EXPECT_EQ(self[1], 25u); // 30 ns less its 5 ns child
    EXPECT_EQ(self[2], 30u);
    EXPECT_EQ(self[3], 30u);
    EXPECT_EQ(self[4], 5u);
    EXPECT_EQ(self[5], 15u);

    auto totals = log.totalsByName();
    EXPECT_EQ(totals["hooks"].calls, 7u);
    EXPECT_EQ(totals["hooks"].busy_ns, 15u);
    EXPECT_EQ(totals["root"].self_ns, 25u);
}

TEST(SpanLog, SelfTimeNeverNegativeAndDisabledRecordsNothing)
{
    SpanLog log(true);
    log.record("p", Span::kNoParent, 0, 10, 0);
    log.aggregate("busy", 0, 50, 3); // more busy time than the parent
    EXPECT_EQ(log.selfTimes()[0], 0u);

    SpanLog off(false);
    {
        ScopedSpan s(off, "x");
        off.record("y", s.id(), 1, 2, 0);
    }
    EXPECT_TRUE(off.spans().empty());
}

TEST(SpanLog, ScopedSpansNest)
{
    SpanLog log(true);
    {
        ScopedSpan outer(log, "outer");
        ScopedSpan inner(log, "inner", 42);
    }
    ASSERT_EQ(log.spans().size(), 2u);
    EXPECT_EQ(log.spans()[1].parent, 0u);
    EXPECT_EQ(log.spans()[1].request, 42u);
    EXPECT_LE(log.spans()[0].start_ns, log.spans()[1].start_ns);
    EXPECT_GE(log.spans()[0].end_ns, log.spans()[1].end_ns);
}

bool
sameCounts(const sim::SingleCoreResult &a, const sim::SingleCoreResult &b)
{
    return a.llc.accesses == b.llc.accesses && a.llc.hits == b.llc.hits
        && a.llc.misses == b.llc.misses
        && a.llc.bypasses == b.llc.bypasses
        && a.llc.evictions == b.llc.evictions
        && a.instructions == b.instructions && a.cycles == b.cycles
        && a.ipc == b.ipc;
}

TEST(Decorators, ChangeNoSimulatedCountSingleCore)
{
    auto trace = generateTrace("mcf", 60'000, 7);
    for (const char *policy : {"LRU", "Glider"}) {
        auto plain = sim::runSingleCore(trace, core::makePolicy(policy));

        sim::TraceSource inner(trace);
        SourceTally st;
        HookTally ht;
        obs::Registry exported;
        TimedSource src(inner, st);
        auto timed = sim::runSingleCore(
            src,
            std::make_unique<TimedPolicy>(core::makePolicy(policy), ht,
                                          &exported));
        EXPECT_TRUE(sameCounts(plain, timed)) << policy;
        EXPECT_EQ(timed.policy, plain.policy);
        EXPECT_EQ(st.records, trace.size());
        // The tally spans warm-up too, so it sees at least the
        // measured phase's LLC traffic.
        EXPECT_GE(ht.llcAccesses(), timed.llc.accesses);
        EXPECT_EQ(ht.misses, ht.inserts + ht.bypasses);
        EXPECT_GT(ht.ns, 0u);
        if (std::string(policy) == "Glider") {
            EXPECT_TRUE(exported.has("policy.accuracy.online"));
        }
    }
}

TEST(LoadLedger, LatencyRunsFromDueTime)
{
    EXPECT_EQ(dueNs(1000, 1e6, 3), 4000u); // 1 us apart
    EXPECT_EQ(dueNs(0, 50'000, 2), 40'000u);

    // A 30 us stall holds back three requests due at 0, 10 and 20 us;
    // each is charged the wait from its own due time.
    LoadLedger ledger;
    ledger.answered(0, 30'000, 31'000);
    ledger.answered(10'000, 30'000, 32'000);
    ledger.answered(20'000, 30'000, 33'000);
    EXPECT_EQ(ledger.attempted(), 3u);
    EXPECT_EQ(ledger.failed(), 0u);
    EXPECT_DOUBLE_EQ(ledger.latencyUs(100).value, 31.0);
    EXPECT_DOUBLE_EQ(ledger.latencyUs(50).value, 22.0);
    EXPECT_DOUBLE_EQ(ledger.latencyUs(1).value, 13.0);
    EXPECT_DOUBLE_EQ(ledger.lagUs(100).value, 30.0);
    EXPECT_DOUBLE_EQ(ledger.lagUs(1).value, 10.0);
}

TEST(LoadLedger, FailuresMissEveryLimit)
{
    LoadLedger ledger;
    for (int i = 0; i < 98; ++i)
        ledger.answered(0, 0, 1'000); // 1 us
    ledger.lost(0, 500); // refused
    ledger.lost(0, 0);   // never answered
    EXPECT_EQ(ledger.attempted(), 100u);
    EXPECT_EQ(ledger.failed(), 2u);
    EXPECT_DOUBLE_EQ(ledger.latencyUs(98).value, 1.0);
    EXPECT_EQ(ledger.latencyUs(99).value, LoadLedger::kFailedLatency);
    EXPECT_EQ(ledger.latencyUs(99).samples, 100u);
    EXPECT_DOUBLE_EQ(ledger.lagUs(100).value, 0.5);
    // A send ahead of its due time is not negative lag.
    LoadLedger early;
    early.answered(5'000, 4'000, 6'000);
    EXPECT_DOUBLE_EQ(early.lagUs(50).value, 0.0);
}

TEST(HostProbe, ScalesToTheReferenceSpeed)
{
    const double ref = HostProbe::kReferenceS;
    EXPECT_DOUBLE_EQ(HostProbe::scale(2.0, ref), 2.0);
    EXPECT_DOUBLE_EQ(HostProbe::scale(2.0, 2.0 * ref), 1.0); // host at half speed
    EXPECT_DOUBLE_EQ(HostProbe::scale(2.0, 0.5 * ref), 4.0);
    EXPECT_DOUBLE_EQ(HostProbe::scale(2.0, 0.0), 2.0); // no probe: unscaled
}

TEST(HostProbe, EachStepSitsBetweenTwoProbes)
{
    HostProbe probe;
    EXPECT_TRUE(probe.samples().empty()); // the warm-up run is not a sample
    probe.begin();
    double f1 = probe.factor();
    ASSERT_EQ(probe.samples().size(), 2u);
    const auto &s = probe.samples();
    EXPECT_DOUBLE_EQ(f1, HostProbe::scale(1.0, 0.5 * (s[0] + s[1])));
    // A second step reuses the first one's closing probe.
    double f2 = probe.factor();
    ASSERT_EQ(probe.samples().size(), 3u);
    EXPECT_DOUBLE_EQ(f2, HostProbe::scale(1.0, 0.5 * (s[1] + s[2])));
    EXPECT_GT(f1, 0.0);
    EXPECT_GT(f2, 0.0);
}

} // namespace
} // namespace perfbench
