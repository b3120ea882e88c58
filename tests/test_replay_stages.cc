/**
 * @file
 * The two-stage single-core replay against the sequential one it
 * replaces: a Hierarchy + CoreModel loop kept here as the reference
 * must give the same LLC stats, instructions, cycles and IPC, count
 * for count, at chunk edges, under every policy, over streamed
 * sources, with stage A on the calling thread or on a helper; and a
 * failure or cancellation in either stage must stop both and surface
 * on the caller's thread. The WalkMemo tests hold the in-memory
 * replay, which reads the trace's memoised walk, to the same
 * standard, and check when the memo is built, reused and dropped.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cachesim/access_source.hh"
#include "cachesim/basic_lru.hh"
#include "cachesim/replay_stages.hh"
#include "cachesim/simulator.hh"
#include "cachesim/walk_memo.hh"
#include "common/cancellation.hh"
#include "common/cpu_budget.hh"
#include "common/rng.hh"
#include "core/policy_factory.hh"
#include "opt/belady.hh"
#include "opt/llc_stream.hh"
#include "traces/gtrace.hh"
#include "workloads/registry.hh"

namespace glider {
namespace sim {
namespace {

constexpr std::uint64_t kChunk = WalkChunk::kCapacity;

/** The sequential replay: one Hierarchy::access and step per record. */
SingleCoreResult
referenceReplay(AccessSource &source,
                std::unique_ptr<ReplacementPolicy> policy,
                const SimOptions &opts)
{
    Hierarchy hier(opts.hierarchy, 1, std::move(policy));
    CoreModel core(opts.core);
    auto warmup_end = static_cast<std::uint64_t>(
        opts.warmup_fraction * static_cast<double>(source.size()));
    std::uint64_t i = 0;
    source.rewind();
    for (auto chunk = source.nextChunk(); !chunk.empty();
         chunk = source.nextChunk()) {
        for (const auto &rec : chunk) {
            AccessDepth depth =
                hier.access(0, rec.pc, rec.address, rec.is_write);
            core.step(depth, hier.latency(depth));
            if (++i == warmup_end) {
                hier.clearStatsCounters();
                core.clearCounters();
            }
        }
    }
    core.finish();
    SingleCoreResult res;
    res.accesses_simulated = i;
    res.instructions = core.instructions();
    res.cycles = core.cycles();
    res.ipc = core.ipc();
    res.llc = hier.llc().stats();
    return res;
}

/** runSingleCore with stage A placed by @p where, not by the tally. */
SingleCoreResult
stagedReplay(AccessSource &source,
             std::unique_ptr<ReplacementPolicy> policy,
             const SimOptions &opts, WalkThread where)
{
    auto warmup_end = static_cast<std::uint64_t>(
        opts.warmup_fraction * static_cast<double>(source.size()));
    LlcStage llc(opts.hierarchy, opts.core, std::move(policy),
                 warmup_end);
    WalkStage walk(source, opts.hierarchy, warmup_end);
    source.rewind();
    runStages(walk, llc, opts.cancel, where);
    llc.finish();
    SingleCoreResult res;
    res.accesses_simulated = llc.accesses();
    res.instructions = llc.core().instructions();
    res.cycles = llc.core().cycles();
    res.ipc = llc.core().ipc();
    res.llc = llc.cache().stats();
    return res;
}

constexpr WalkThread kPlacements[] = {WalkThread::Caller,
                                      WalkThread::Helper};

std::string
placementName(WalkThread where)
{
    return where == WalkThread::Helper ? "helper" : "caller";
}

void
expectSameCounts(const SingleCoreResult &got, const SingleCoreResult &want,
                 const std::string &what)
{
    EXPECT_EQ(got.accesses_simulated, want.accesses_simulated) << what;
    EXPECT_EQ(got.llc.accesses, want.llc.accesses) << what;
    EXPECT_EQ(got.llc.hits, want.llc.hits) << what;
    EXPECT_EQ(got.llc.misses, want.llc.misses) << what;
    EXPECT_EQ(got.llc.bypasses, want.llc.bypasses) << what;
    EXPECT_EQ(got.llc.evictions, want.llc.evictions) << what;
    EXPECT_EQ(got.instructions, want.instructions) << what;
    EXPECT_EQ(got.cycles, want.cycles) << what;
    EXPECT_EQ(got.ipc, want.ipc) << what;
}

/** A small LLC, so short traces still evict and policies differ. */
SimOptions
pressuredOptions()
{
    SimOptions opts;
    opts.hierarchy.l2.size_bytes = 64 * 1024;
    opts.hierarchy.llc.size_bytes = 256 * 1024;
    return opts;
}

/** Seeded random trace over @p blocks blocks. */
traces::Trace
randomTrace(std::size_t len, std::uint64_t blocks, std::uint64_t seed)
{
    traces::Trace t("random");
    Rng rng(seed);
    for (std::size_t i = 0; i < len; ++i)
        t.push(0x400000 + rng.below(97) * 4, rng.below(blocks) * 64,
               rng.chance(0.25));
    return t;
}

/** Run @p t both ways under @p policy and compare. */
void
expectPipelineMatches(const traces::Trace &t, const std::string &policy,
                      const SimOptions &opts)
{
    TraceSource ref(t);
    auto want = referenceReplay(ref, core::makePolicy(policy), opts);
    TraceSource a(t);
    expectSameCounts(runSingleCore(a, core::makePolicy(policy), opts),
                     want, policy + " on " + t.name());
    for (WalkThread where : kPlacements) {
        TraceSource b(t);
        expectSameCounts(
            stagedReplay(b, core::makePolicy(policy), opts, where), want,
            policy + " on " + t.name() + ", " + placementName(where));
    }
}

/**
 * In-memory source cut into @p chunk-record chunks. Counts nextChunk
 * calls, and throws from call @p throw_at (0: never).
 */
class SlicedSource final : public AccessSource
{
  public:
    SlicedSource(const traces::Trace &t, std::size_t chunk,
                 std::uint64_t throw_at = 0)
        : trace_(t), chunk_(chunk), throw_at_(throw_at)
    {
    }

    const std::string &name() const override { return trace_.name(); }
    std::uint64_t size() const override { return trace_.size(); }

    std::span<const traces::AccessRecord>
    nextChunk() override
    {
        std::uint64_t call =
            calls.fetch_add(1, std::memory_order_relaxed) + 1;
        if (call == throw_at_)
            throw std::runtime_error("source failed");
        std::size_t n = std::min(chunk_, trace_.size() - pos_);
        std::span<const traces::AccessRecord> out(
            trace_.records().data() + pos_, n);
        pos_ += n;
        return out;
    }

    void rewind() override { pos_ = 0; }

    std::atomic<std::uint64_t> calls{0};

  private:
    const traces::Trace &trace_;
    std::size_t chunk_;
    std::uint64_t throw_at_;
    std::size_t pos_ = 0;
};

/**
 * True LRU that runs @p hook before every LLC access it sees; the
 * hook gets the 1-based access count and may throw.
 */
class HookedLru final : public ReplacementPolicy
{
  public:
    explicit HookedLru(std::function<void(std::uint64_t)> hook)
        : hook_(std::move(hook))
    {
    }

    std::string name() const override { return "HookedLRU"; }
    void reset(const CacheGeometry &geom) override { lru_.reset(geom); }

    std::uint32_t
    victimWay(const ReplacementAccess &access, SetView lines) override
    {
        hook_(++accesses_);
        return lru_.victimWay(access, lines);
    }

    void
    onHit(const ReplacementAccess &access, std::uint32_t way) override
    {
        hook_(++accesses_);
        lru_.onHit(access, way);
    }

    void
    onEvict(const ReplacementAccess &access, std::uint32_t way,
            const LineView &victim) override
    {
        lru_.onEvict(access, way, victim);
    }

    void
    onInsert(const ReplacementAccess &access, std::uint32_t way) override
    {
        lru_.onInsert(access, way);
    }

  private:
    std::uint64_t accesses_ = 0;
    BasicLruPolicy lru_;
    std::function<void(std::uint64_t)> hook_;
};

TEST(ReplayStages, TraceShorterThanOneChunk)
{
    auto t = randomTrace(kChunk / 3, 5000, 1);
    for (double warmup : {0.0, 0.2, 1.0})
        for (const char *policy : {"LRU", "Glider"}) {
            SimOptions opts = pressuredOptions();
            opts.warmup_fraction = warmup;
            expectPipelineMatches(t, policy, opts);
        }
    auto one = randomTrace(1, 10, 2);
    expectPipelineMatches(one, "LRU", SimOptions());
}

TEST(ReplayStages, WarmupExactlyOnChunkBoundary)
{
    // 8 chunks, warm-up ends after exactly 2 of them; and one access
    // to either side of that boundary.
    for (std::uint64_t len :
         {8 * kChunk, 8 * kChunk - 4, 8 * kChunk + 4}) {
        auto t = randomTrace(len, 20000, 3);
        SimOptions opts = pressuredOptions();
        opts.warmup_fraction = static_cast<double>(2 * kChunk)
            / static_cast<double>(8 * kChunk);
        for (const char *policy : {"LRU", "SHiP++"})
            expectPipelineMatches(t, policy, opts);
    }
}

TEST(ReplayStages, NoWarmup)
{
    auto t = randomTrace(20 * kChunk + 17, 30000, 4);
    SimOptions opts = pressuredOptions();
    opts.warmup_fraction = 0.0;
    for (const char *policy : {"LRU", "Hawkeye"})
        expectPipelineMatches(t, policy, opts);
}

TEST(ReplayStages, StreamingSourceWithManySmallChunks)
{
    const auto &t = workloads::cachedTrace("omnetpp", 60'000);
    std::string path = "/tmp/glider_stages_small."
        + std::to_string(::getpid()) + ".gtrace";
    {
        traces::GtraceWriter w;
        ASSERT_TRUE(w.open(path, t.name(), 37));
        for (const auto &rec : t)
            w.push(rec);
        ASSERT_TRUE(w.finish());
    }
    SimOptions opts = pressuredOptions();
    for (const char *policy : {"LRU", "Glider"}) {
        traces::StreamingTrace st;
        ASSERT_TRUE(st.open(path));
        StreamingSource streamed(std::move(st));
        auto got = runSingleCore(streamed, core::makePolicy(policy), opts);
        TraceSource mem(t);
        auto want = referenceReplay(mem, core::makePolicy(policy), opts);
        expectSameCounts(got, want, policy);
    }
    // Source chunks of every size around the handoff's chunk size.
    TraceSource mem(t);
    auto want = referenceReplay(mem, core::makePolicy("LRU"), opts);
    for (std::size_t chunk : {std::size_t{1}, kChunk - 1, kChunk,
                              kChunk + 1, 3 * kChunk + 7})
        for (WalkThread where : kPlacements) {
            SlicedSource sliced(t, chunk);
            expectSameCounts(stagedReplay(sliced, core::makePolicy("LRU"),
                                          opts, where),
                             want,
                             "source chunk " + std::to_string(chunk)
                                 + ", " + placementName(where));
        }
    std::remove(path.c_str());
}

TEST(ReplayStages, EveryPolicyMatchesSequentialReplay)
{
    const auto &t = workloads::cachedTrace("mcf", 40'000);
    SimOptions opts = pressuredOptions();
    for (const auto &policy : core::policyNames())
        expectPipelineMatches(t, policy, opts);

    // MIN, on the LLC stream the private levels let through.
    auto stream = opt::extractLlcStream(t, opts.hierarchy);
    TraceSource ref(t);
    auto want = referenceReplay(
        ref, std::make_unique<opt::BeladyPolicy>(stream), opts);
    for (WalkThread where : kPlacements) {
        TraceSource a(t);
        expectSameCounts(
            stagedReplay(a, std::make_unique<opt::BeladyPolicy>(stream),
                         opts, where),
            want, "MIN, " + placementName(where));
    }
}

TEST(ReplayStages, CancellationReturnsPromptlyWithHelperJoined)
{
    const auto &t = workloads::cachedTrace("mcf", 400'000);
    for (WalkThread where : kPlacements) {
        SCOPED_TRACE(placementName(where));
        CancelToken token;
        std::uint64_t at_cancel = 0;
        std::uint64_t last = 0; // the policy dies with the replay
        auto policy = std::make_unique<HookedLru>([&](std::uint64_t n) {
            last = n;
            if (n == 5000) {
                at_cancel = n;
                token.cancel();
            }
        });
        SlicedSource source(t, 64);
        SimOptions opts;
        opts.cancel = &token;
        EXPECT_THROW(stagedReplay(source, std::move(policy), opts, where),
                     CancelledError);
        ASSERT_EQ(at_cancel, 5000u);
        // Stage B polls once per chunk, so at most one more chunk of
        // LLC accesses ran after the cancel.
        EXPECT_LE(last - at_cancel, kChunk);
        // Stage A is done: nothing reads the source any more, and it
        // stopped long before the end of the trace.
        std::uint64_t calls = source.calls.load(std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        EXPECT_EQ(source.calls.load(std::memory_order_relaxed), calls);
        EXPECT_LT(calls, t.size() / 64 / 2);
    }
}

TEST(ReplayStages, SourceExceptionPropagates)
{
    auto t = randomTrace(50 * kChunk, 30000, 5);
    for (WalkThread where : kPlacements) {
        SCOPED_TRACE(placementName(where));
        SlicedSource source(t, 100, /*throw_at=*/200);
        try {
            stagedReplay(source, core::makePolicy("LRU"), SimOptions(),
                         where);
            FAIL() << "expected the source's exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "source failed");
        }
        EXPECT_EQ(source.calls.load(std::memory_order_relaxed), 200u);
    }
}

TEST(ReplayStages, CorruptGtraceChunkPropagates)
{
    auto t = randomTrace(40'000, 30000, 6);
    std::string path = "/tmp/glider_stages_corrupt."
        + std::to_string(::getpid()) + ".gtrace";
    {
        traces::GtraceWriter w;
        ASSERT_TRUE(w.open(path, t.name(), 500));
        for (const auto &rec : t)
            w.push(rec);
        ASSERT_TRUE(w.finish());
    }
    {
        // Flip one payload byte about halfway through the file.
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
        long mid = std::ftell(f) / 2;
        ASSERT_EQ(std::fseek(f, mid, SEEK_SET), 0);
        int c = std::fgetc(f);
        ASSERT_NE(c, EOF);
        ASSERT_EQ(std::fseek(f, mid, SEEK_SET), 0);
        std::fputc(c ^ 0xFF, f);
        std::fclose(f);
    }
    for (WalkThread where : kPlacements) {
        SCOPED_TRACE(placementName(where));
        traces::StreamingTrace st;
        std::string error;
        ASSERT_TRUE(st.open(path, &error)) << error;
        StreamingSource source(std::move(st));
        EXPECT_THROW(stagedReplay(source, core::makePolicy("LRU"),
                                  SimOptions(), where),
                     std::runtime_error);
    }
    std::remove(path.c_str());
}

TEST(ReplayStages, PolicyExceptionPropagates)
{
    auto t = randomTrace(50 * kChunk, 30000, 7);
    for (WalkThread where : kPlacements) {
        SCOPED_TRACE(placementName(where));
        SlicedSource source(t, 100);
        auto policy = std::make_unique<HookedLru>([](std::uint64_t n) {
            if (n == 3000)
                throw std::logic_error("policy failed");
        });
        try {
            stagedReplay(source, std::move(policy), SimOptions(), where);
            FAIL() << "expected the policy's exception";
        } catch (const std::logic_error &e) {
            EXPECT_STREQ(e.what(), "policy failed");
        }
        std::uint64_t calls = source.calls.load(std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        EXPECT_EQ(source.calls.load(std::memory_order_relaxed), calls);
    }
}

TEST(ReplayStages, FirstFailureInAccessOrderWins)
{
    // Random blocks over a large footprint: almost every access goes
    // to the LLC, so LLC access n is record n or just after it. The
    // source fails on its 12th call: records from 1100 on never come.
    // Records 0-1023 fill the first chunk; 1024-1099 were walked into
    // the second when the source failed, and are replayed before its
    // error surfaces.
    auto t = randomTrace(50 * kChunk, 1'000'000, 8);
    auto failingAt = [](std::uint64_t at) {
        return std::make_unique<HookedLru>([at](std::uint64_t n) {
            if (n == at)
                throw std::logic_error("policy failed");
        });
    };
    for (WalkThread where : kPlacements) {
        SCOPED_TRACE(placementName(where));
        // The policy fails inside the first chunk, or inside the
        // part of the second walked before the source failed: the
        // policy's error wins.
        for (std::uint64_t at : {900u, 1050u}) {
            SlicedSource source(t, 100, /*throw_at=*/12);
            EXPECT_THROW(
                stagedReplay(source, failingAt(at), SimOptions(), where),
                std::logic_error)
                << "policy fails at LLC access " << at;
        }
        // The policy would fail after the last access the source
        // delivered: the source's error wins.
        SlicedSource source(t, 100, /*throw_at=*/12);
        EXPECT_THROW(
            stagedReplay(source, failingAt(1200), SimOptions(), where),
            std::runtime_error);
    }
}

// ----------------------------------------------------------- walk memo

/** A fresh trace with @p t's name and records: its memo is empty. */
traces::Trace
freshCopy(const traces::Trace &t)
{
    traces::Trace out(t.name());
    for (const auto &rec : t)
        out.push(rec);
    return out;
}

/** The pipeline's replay of @p t, stage A on the calling thread. */
SingleCoreResult
walkedReplay(const traces::Trace &t, const std::string &policy,
             const SimOptions &opts)
{
    SlicedSource source(t, kChunk);
    return stagedReplay(source, core::makePolicy(policy), opts,
                        WalkThread::Caller);
}

/** Walks and reuses counted since construction. */
struct TallyDelta
{
    WalkTally before = walkTally();

    std::uint64_t walks() const { return walkTally().walks - before.walks; }
    std::uint64_t
    reuses() const
    {
        return walkTally().reuses - before.reuses;
    }
};

TEST(WalkMemo, EveryPolicyMatchesStagedReplay)
{
    auto t = freshCopy(workloads::cachedTrace("sphinx3", 40'000));
    SimOptions opts = pressuredOptions();
    TallyDelta tally;
    for (const auto &policy : core::policyNames()) {
        auto got = runSingleCore(t, core::makePolicy(policy), opts);
        for (WalkThread where : kPlacements) {
            TraceSource source(t);
            expectSameCounts(
                got,
                stagedReplay(source, core::makePolicy(policy), opts,
                             where),
                policy + ", " + placementName(where));
        }
    }
    EXPECT_EQ(tally.walks(), 1u);
    EXPECT_EQ(tally.reuses(), core::policyNames().size() - 1);
}

TEST(WalkMemo, MinStreamMatchesPerCoreWalk)
{
    auto reference = [](const traces::Trace &t,
                        const HierarchyConfig &config) {
        unsigned cores = 1;
        for (const auto &rec : t)
            cores = std::max(cores, rec.core + 1u);
        PrivateWalk walk(config, cores);
        std::vector<traces::AccessRecord> out;
        for (const auto &rec : t) {
            if (walk.access(rec.core, traces::blockAddr(rec.address))
                == AccessDepth::Llc)
                out.push_back(rec);
        }
        return out;
    };
    auto expectStream = [](const traces::Trace &got,
                           const std::vector<traces::AccessRecord> &want) {
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].pc, want[i].pc) << i;
            EXPECT_EQ(got[i].address, want[i].address) << i;
            EXPECT_EQ(got[i].core, want[i].core) << i;
            EXPECT_EQ(got[i].is_write, want[i].is_write) << i;
        }
    };
    SimOptions opts = pressuredOptions();
    auto t = freshCopy(workloads::cachedTrace("mcf", 40'000));
    {
        // A replay walks; MIN's stream is cut from the same walk.
        TallyDelta tally;
        runSingleCore(t, core::makePolicy("LRU"), opts);
        auto stream = opt::extractLlcStream(t, opts.hierarchy);
        EXPECT_EQ(tally.walks(), 1u);
        EXPECT_EQ(tally.reuses(), 1u);
        expectStream(stream, reference(t, opts.hierarchy));
    }
    // Records spread over four cores walk four L1/L2 pairs, as in a
    // multi-core Hierarchy, not the single-core memo.
    traces::Trace mixed("mixed");
    Rng rng(9);
    for (std::size_t i = 0; i < 30'000; ++i)
        mixed.push(0x400000 + rng.below(31) * 4, rng.below(6000) * 64,
                   rng.chance(0.3), static_cast<std::uint8_t>(i % 4));
    TallyDelta tally;
    expectStream(opt::extractLlcStream(mixed, opts.hierarchy),
                 reference(mixed, opts.hierarchy));
    EXPECT_EQ(tally.walks(), 0u);
    EXPECT_EQ(tally.reuses(), 0u);
}

TEST(WalkMemo, MutationDropsTheMemo)
{
    SimOptions opts = pressuredOptions();
    auto t = randomTrace(20 * kChunk, 30000, 10);
    auto extra = randomTrace(3 * kChunk + 5, 30000, 11);
    runSingleCore(t, core::makePolicy("LRU"), opts);
    for (const auto &rec : extra)
        t.push(rec);
    expectSameCounts(runSingleCore(t, core::makePolicy("SRRIP"), opts),
                     walkedReplay(freshCopy(t), "SRRIP", opts), "push");

    t.truncate(7 * kChunk + 3);
    expectSameCounts(runSingleCore(t, core::makePolicy("SRRIP"), opts),
                     walkedReplay(freshCopy(t), "SRRIP", opts),
                     "truncate");

    std::string path = "/tmp/glider_walk_memo."
        + std::to_string(::getpid()) + ".trace";
    ASSERT_TRUE(extra.save(path));
    ASSERT_TRUE(traces::Trace::load(path, t));
    std::remove(path.c_str());
    expectSameCounts(runSingleCore(t, core::makePolicy("SRRIP"), opts),
                     walkedReplay(extra, "SRRIP", opts), "load");
}

TEST(WalkMemo, MutatingACopyLeavesTheOriginal)
{
    SimOptions opts = pressuredOptions();
    auto t = randomTrace(12 * kChunk, 30000, 12);
    auto want = runSingleCore(t, core::makePolicy("Hawkeye"), opts);

    traces::Trace copy = t;
    copy.truncate(5 * kChunk);
    copy.push(0x400100, 0x1234000);
    expectSameCounts(runSingleCore(copy, core::makePolicy("Hawkeye"), opts),
                     walkedReplay(copy, "Hawkeye", opts), "the copy");

    TallyDelta tally;
    expectSameCounts(runSingleCore(t, core::makePolicy("Hawkeye"), opts),
                     want, "the original");
    EXPECT_EQ(tally.walks(), 0u) << "the original lost its memo";
    EXPECT_EQ(tally.reuses(), 1u);
}

TEST(WalkMemo, EachShapeWalkedOnceOnOneTrace)
{
    auto t = freshCopy(workloads::cachedTrace("omnetpp", 40'000));
    // Table 1, then a smaller L1 alone, then a smaller L2 alone: each
    // level's shape is part of the key.
    SimOptions shapes[3];
    shapes[1].hierarchy.l1.size_bytes = 16 * 1024;
    shapes[2].hierarchy.l2.size_bytes = 64 * 1024;
    TallyDelta tally;
    for (int round = 0; round < 2; ++round) {
        for (int k = 0; k < 3; ++k) {
            expectSameCounts(
                runSingleCore(t, core::makePolicy("SHiP++"), shapes[k]),
                walkedReplay(t, "SHiP++", shapes[k]),
                "round " + std::to_string(round) + ", shape "
                    + std::to_string(k));
        }
    }
    EXPECT_EQ(tally.walks(), 3u);
    EXPECT_EQ(tally.reuses(), 3u);
}

TEST(WalkMemo, ConcurrentFirstUseWalksOnce)
{
    auto t = freshCopy(workloads::cachedTrace("mcf", 60'000));
    constexpr int kThreads = 8;
    std::vector<SingleCoreResult> got(kThreads);
    TallyDelta tally;
    {
        std::latch start(kThreads);
        std::vector<std::jthread> threads;
        for (int k = 0; k < kThreads; ++k) {
            threads.emplace_back([&, k] {
                start.arrive_and_wait();
                got[k] = runSingleCore(t, core::makePolicy("LRU"),
                                       pressuredOptions());
            });
        }
    }
    EXPECT_EQ(tally.walks(), 1u);
    EXPECT_EQ(tally.reuses(), kThreads - 1u);
    auto want = walkedReplay(t, "LRU", pressuredOptions());
    for (int k = 0; k < kThreads; ++k)
        expectSameCounts(got[k], want, "thread " + std::to_string(k));
}

TEST(WalkMemo, CancellationThrowsPromptly)
{
    const auto &t = workloads::cachedTrace("mcf", 400'000);
    CancelToken token;
    std::uint64_t at_cancel = 0;
    std::uint64_t last = 0; // the policy dies with the replay
    auto policy = std::make_unique<HookedLru>([&](std::uint64_t n) {
        last = n;
        if (n == 5000) {
            at_cancel = n;
            token.cancel();
        }
    });
    SimOptions opts;
    opts.cancel = &token;
    EXPECT_THROW(runSingleCore(t, std::move(policy), opts),
                 CancelledError);
    ASSERT_EQ(at_cancel, 5000u);
    // Polled once per WalkChunk::kCapacity accesses: at most that
    // many more LLC accesses ran after the cancel.
    EXPECT_LE(last - at_cancel, kChunk);
}

TEST(ReplayStages, HelperOnlyWithASpareCpu)
{
    // A SpareCpu is granted only if the tally, the caller and the
    // helper fit in the usable CPUs.
    const int cpus = static_cast<int>(cpu_budget::usableCpus());
    if (cpus < 2)
        GTEST_SKIP() << "a helper needs a second CPU";
    const int free_now = cpus - static_cast<int>(cpu_budget::held());
    cpu_budget::adjust(free_now - 1); // only the caller's CPU is left
    {
        cpu_budget::SpareCpu spare;
        EXPECT_FALSE(spare);
    }
    cpu_budget::adjust(-1); // one CPU beside the caller's
    {
        cpu_budget::SpareCpu spare;
        EXPECT_TRUE(spare);
        EXPECT_EQ(static_cast<int>(cpu_budget::held()), cpus - 1);
        cpu_budget::SpareCpu second;
        EXPECT_FALSE(second);
    }
    EXPECT_EQ(static_cast<int>(cpu_budget::held()), cpus - 2);
    cpu_budget::adjust(2 - free_now);
    EXPECT_EQ(static_cast<int>(cpu_budget::held()), cpus - free_now);
}

TEST(ReplayStages, RingHandsChunksOverInOrder)
{
    // Producer and consumer on two threads through one ring: every
    // chunk arrives once, in order, and close() ends the consumer.
    ChunkRing ring;
    constexpr std::uint32_t kChunks = 1000;
    std::jthread producer([&] {
        for (std::uint32_t c = 0; c < kChunks; ++c) {
            WalkChunk *slot = ring.claim();
            ASSERT_NE(slot, nullptr);
            slot->count = c;
            slot->depth[0] = static_cast<AccessDepth>(c % 4);
            ring.publish();
        }
        ring.close();
    });
    std::uint32_t expect = 0;
    while (const WalkChunk *chunk = ring.acquire()) {
        EXPECT_EQ(chunk->count, expect);
        EXPECT_EQ(chunk->depth[0], static_cast<AccessDepth>(expect % 4));
        ++expect;
        ring.release();
    }
    EXPECT_EQ(expect, kChunks);
}

TEST(ReplayStages, RingStopReleasesAWaitingProducer)
{
    ChunkRing ring;
    std::atomic<std::uint64_t> claimed{0};
    std::jthread producer([&] {
        while (WalkChunk *slot = ring.claim()) {
            slot->count = 1;
            claimed.fetch_add(1, std::memory_order_relaxed);
            ring.publish();
        }
        ring.close();
    });
    // Free kWakeEvery slots: the producer refills them, finds the
    // ring full again and waits until stop() ends the handoff.
    for (std::uint64_t i = 0; i < ChunkRing::kWakeEvery; ++i) {
        ASSERT_NE(ring.acquire(), nullptr);
        ring.release();
    }
    const std::uint64_t all = ChunkRing::kSlots + ChunkRing::kWakeEvery;
    while (claimed.load(std::memory_order_relaxed) < all)
        std::this_thread::yield();
    ring.stop();
    producer.join();
    EXPECT_EQ(claimed.load(std::memory_order_relaxed), all);
}

} // namespace
} // namespace sim
} // namespace glider
