/**
 * @file
 * Unit tests for src/cachesim: cache mechanics, hierarchy routing,
 * the core timing model, and the simulation drivers.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "cachesim/basic_lru.hh"
#include "cachesim/cache.hh"
#include "cachesim/core_model.hh"
#include "cachesim/hierarchy.hh"
#include "cachesim/simulator.hh"
#include "common/rng.hh"
#include "obs/metrics.hh"
#include "traces/access.hh"

namespace glider {
namespace sim {
namespace {

CacheConfig
tinyConfig(std::uint64_t size = 4 * 64, std::uint32_t ways = 2)
{
    CacheConfig c;
    c.name = "tiny";
    c.size_bytes = size;
    c.ways = ways;
    c.latency = 1;
    return c;
}

TEST(CacheConfig, SetsFromGeometry)
{
    CacheConfig c;
    c.size_bytes = 2 * 1024 * 1024;
    c.ways = 16;
    EXPECT_EQ(c.sets(), 2048u);
    c.size_bytes = 32 * 1024;
    c.ways = 8;
    EXPECT_EQ(c.sets(), 64u);
}

TEST(Cache, HitAfterFill)
{
    Cache cache(tinyConfig(), std::make_unique<BasicLruPolicy>());
    EXPECT_FALSE(cache.access(0, 1, 100, false)); // cold miss
    EXPECT_TRUE(cache.access(0, 1, 100, false));  // now resident
    EXPECT_EQ(cache.stats().accesses, 2u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, LruEvictionOrder)
{
    // 2 sets x 2 ways; blocks 0,2,4 land in set 0.
    Cache cache(tinyConfig(), std::make_unique<BasicLruPolicy>());
    cache.access(0, 1, 0, false);
    cache.access(0, 1, 2, false);
    cache.access(0, 1, 0, false); // refresh block 0
    cache.access(0, 1, 4, false); // evicts block 2 (LRU)
    EXPECT_TRUE(cache.probe(0));
    EXPECT_FALSE(cache.probe(2));
    EXPECT_TRUE(cache.probe(4));
}

TEST(Cache, SetsAreIndependent)
{
    Cache cache(tinyConfig(), std::make_unique<BasicLruPolicy>());
    // Blocks 0 and 1 map to different sets; filling set 0 never
    // disturbs set 1.
    cache.access(0, 1, 1, false);
    for (std::uint64_t b = 0; b < 20; b += 2)
        cache.access(0, 1, b, false);
    EXPECT_TRUE(cache.probe(1));
}

TEST(Cache, ProbeHasNoSideEffects)
{
    Cache cache(tinyConfig(), std::make_unique<BasicLruPolicy>());
    cache.access(0, 1, 0, false);
    auto before = cache.stats().accesses;
    cache.probe(0);
    cache.probe(12345);
    EXPECT_EQ(cache.stats().accesses, before);
}

/** Policy that always bypasses: nothing is ever cached. */
class AlwaysBypass : public ReplacementPolicy
{
  public:
    std::string name() const override { return "bypass"; }
    void reset(const CacheGeometry &geom) override { geom_ = geom; }
    std::uint32_t
    victimWay(const ReplacementAccess &, SetView) override
    {
        return geom_.ways;
    }
    void onHit(const ReplacementAccess &, std::uint32_t) override {}
    void onEvict(const ReplacementAccess &, std::uint32_t,
                 const LineView &) override
    {
    }
    void onInsert(const ReplacementAccess &, std::uint32_t) override {}

  private:
    CacheGeometry geom_;
};

TEST(Cache, BypassNeverFills)
{
    Cache cache(tinyConfig(), std::make_unique<AlwaysBypass>());
    cache.access(0, 1, 0, false);
    cache.access(0, 1, 0, false);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().bypasses, 2u);
    EXPECT_FALSE(cache.probe(0));
}

TEST(Cache, ClearStatsKeepsContents)
{
    Cache cache(tinyConfig(), std::make_unique<BasicLruPolicy>());
    cache.access(0, 1, 0, false);
    cache.clearStats();
    EXPECT_EQ(cache.stats().accesses, 0u);
    EXPECT_TRUE(cache.probe(0));
    EXPECT_TRUE(cache.access(0, 1, 0, false)); // still a hit
}

TEST(Cache, ResetClearsContents)
{
    Cache cache(tinyConfig(), std::make_unique<BasicLruPolicy>());
    cache.access(0, 1, 0, false);
    cache.reset();
    EXPECT_FALSE(cache.probe(0));
}

TEST(Hierarchy, DepthProgression)
{
    HierarchyConfig cfg;
    Hierarchy h(cfg, 1, std::make_unique<BasicLruPolicy>());
    // First touch goes all the way to DRAM; after the fill, the L1
    // serves it.
    EXPECT_EQ(h.access(0, 1, 0x5000, false), AccessDepth::Dram);
    EXPECT_EQ(h.access(0, 1, 0x5000, false), AccessDepth::L1);
}

TEST(Hierarchy, LatencyMonotoneInDepth)
{
    HierarchyConfig cfg;
    Hierarchy h(cfg, 1, std::make_unique<BasicLruPolicy>());
    EXPECT_LT(h.latency(AccessDepth::L1), h.latency(AccessDepth::L2));
    EXPECT_LT(h.latency(AccessDepth::L2), h.latency(AccessDepth::Llc));
    EXPECT_LT(h.latency(AccessDepth::Llc), h.latency(AccessDepth::Dram));
}

TEST(Hierarchy, L2CatchesL1Evictions)
{
    HierarchyConfig cfg;
    Hierarchy h(cfg, 1, std::make_unique<BasicLruPolicy>());
    // Fill one L1 set (64 sets x 8 ways; stride 64*64 bytes stays in
    // set 0) past capacity; the evicted-but-L2-resident block then
    // hits in L2.
    std::uint64_t stride = 64 * 64;
    for (int i = 0; i < 9; ++i)
        h.access(0, 1, i * stride, false);
    EXPECT_EQ(h.access(0, 1, 0, false), AccessDepth::L2);
}

TEST(Hierarchy, PerCoreLlcMissCounters)
{
    HierarchyConfig cfg;
    Hierarchy h(cfg, 2, std::make_unique<BasicLruPolicy>());
    h.access(0, 1, 0x100000, false);
    h.access(1, 1, 0x200000, false);
    h.access(1, 1, 0x300000, false);
    EXPECT_EQ(h.llcMissesFor(0), 1u);
    EXPECT_EQ(h.llcMissesFor(1), 2u);
}

/** True LRU that bypasses every access from an odd PC. */
class BypassOddPcs : public BasicLruPolicy
{
  public:
    std::uint32_t
    victimWay(const ReplacementAccess &access, SetView lines)
        noexcept override
    {
        if (access.pc & 1)
            return lines.size();
        return BasicLruPolicy::victimWay(access, lines);
    }
};

TEST(Hierarchy, ExportGivesBackDepthsAndFreeWayFills)
{
    HierarchyConfig cfg;
    cfg.l1 = tinyConfig(4 * 64, 2);
    cfg.l2 = tinyConfig(8 * 64, 2);
    cfg.llc = tinyConfig(32 * 64, 4);
    Hierarchy h(cfg, 2, std::make_unique<BypassOddPcs>());

    // depth[core][AccessDepth] as returned by access().
    std::uint64_t depth[2][4] = {};
    std::set<std::uint64_t> blocks;
    Rng rng(7);
    for (int i = 0; i < 4000; ++i) {
        auto core = static_cast<std::uint8_t>(rng.below(2));
        std::uint64_t addr = (core * 256 + rng.below(64)) * 64;
        blocks.insert(traces::blockAddr(addr));
        ++depth[core][static_cast<int>(
            h.access(core, rng.below(8), addr, false))];
    }

    obs::Registry registry;
    h.exportMetrics(registry, "h");
    const std::string first = registry.toJson().dump();
    auto value = [&](const std::string &name) {
        EXPECT_TRUE(registry.has(name)) << name;
        return registry.counter(name).value();
    };

    // Per core, the export gives back the access-depth distribution.
    for (unsigned c = 0; c < 2; ++c) {
        const std::string core = "core" + std::to_string(c);
        const std::uint64_t llc_misses = value("h.llc." + core + ".misses");
        EXPECT_EQ(value("h.l1." + core + ".hits"),
                  depth[c][static_cast<int>(AccessDepth::L1)]);
        EXPECT_EQ(value("h.l2." + core + ".hits"),
                  depth[c][static_cast<int>(AccessDepth::L2)]);
        EXPECT_EQ(value("h.llc." + core + ".accesses") - llc_misses,
                  depth[c][static_cast<int>(AccessDepth::Llc)]);
        EXPECT_EQ(llc_misses,
                  depth[c][static_cast<int>(AccessDepth::Dram)]);
    }

    // On a fresh LLC, misses that filled a free way are the lines
    // now resident.
    std::uint64_t resident = 0;
    for (std::uint64_t block : blocks)
        resident += h.llc().probe(block) ? 1 : 0;
    const std::uint64_t evictions = value("h.llc.shared.evictions");
    const std::uint64_t bypasses = value("h.llc.shared.bypasses");
    EXPECT_GT(evictions, 0u);
    EXPECT_GT(bypasses, 0u);
    EXPECT_EQ(value("h.llc.shared.misses") - evictions - bypasses,
              resident);

    // Exports set values, so a second one into the same registry
    // changes nothing.
    h.exportMetrics(registry, "h");
    EXPECT_EQ(registry.toJson().dump(), first);
}

TEST(CoreModel, PureL1HitsRunAtFullWidth)
{
    CoreModel core;
    for (int i = 0; i < 1000; ++i)
        core.step(AccessDepth::L1, 4);
    core.finish();
    EXPECT_NEAR(core.ipc(), 4.0, 1e-9);
}

TEST(CoreModel, DramMissesLowerIpc)
{
    CoreParams p;
    CoreModel fast(p), slow(p);
    for (int i = 0; i < 1000; ++i) {
        fast.step(AccessDepth::L1, 4);
        slow.step(AccessDepth::Dram, 242);
    }
    fast.finish();
    slow.finish();
    EXPECT_LT(slow.ipc(), fast.ipc());
    EXPECT_GT(slow.ipc(), 0.0);
}

TEST(CoreModel, MshrLimitSerialisesMissBursts)
{
    // With 1 MSHR misses serialise; with 16 they overlap.
    CoreParams serial;
    serial.mshrs = 1;
    CoreParams parallel;
    parallel.mshrs = 16;
    CoreModel a(serial), b(parallel);
    for (int i = 0; i < 200; ++i) {
        a.step(AccessDepth::Dram, 242);
        b.step(AccessDepth::Dram, 242);
    }
    a.finish();
    b.finish();
    EXPECT_LT(a.ipc(), b.ipc());
}

TEST(CoreModel, FinishDrainsOutstanding)
{
    CoreModel core;
    core.step(AccessDepth::Dram, 242);
    double before = core.cycles();
    core.finish();
    EXPECT_GT(core.cycles(), before);
}

TEST(CoreModel, ClearCountersResets)
{
    CoreModel core;
    core.step(AccessDepth::Dram, 242);
    core.clearCounters();
    EXPECT_EQ(core.instructions(), 0u);
    EXPECT_EQ(core.cycles(), 0.0);
}

TEST(CoreModel, ClearCountersRetainsInFlightWindow)
{
    CoreModel core;
    // A long DRAM miss is still outstanding at the warmup boundary:
    // completion 1001 cycles, 4 instructions issued, 1 cycle elapsed.
    core.step(AccessDepth::Dram, 1000);
    core.clearCounters();
    // Post-warmup: 100 L1 hits retire 400 instructions in 100 cycles,
    // but the rebased miss (completion now 1000) must still stall the
    // drain — it was in flight, not dropped.
    for (int i = 0; i < 100; ++i)
        core.step(AccessDepth::L1, 4);
    core.finish();
    EXPECT_EQ(core.instructions(), 400u);
    EXPECT_DOUBLE_EQ(core.cycles(), 1000.0);
    EXPECT_DOUBLE_EQ(core.ipc(), 0.4);
}

traces::Trace
streamingTrace(std::size_t blocks, int sweeps)
{
    traces::Trace t("stream");
    for (int s = 0; s < sweeps; ++s) {
        for (std::size_t b = 0; b < blocks; ++b)
            t.push(0x400000, b * 64);
    }
    return t;
}

TEST(Simulator, SingleCoreRunsAndReports)
{
    auto trace = streamingTrace(100000, 2);
    SimOptions opts;
    auto res = runSingleCore(trace, std::make_unique<BasicLruPolicy>(),
                             opts);
    EXPECT_EQ(res.policy, "LRU");
    EXPECT_GT(res.instructions, 0u);
    EXPECT_GT(res.ipc, 0.0);
    EXPECT_GT(res.llc.accesses, 0u);
}

TEST(Simulator, WarmupReducesMeasuredAccesses)
{
    auto trace = streamingTrace(50000, 2);
    SimOptions none;
    none.warmup_fraction = 0.0;
    SimOptions half;
    half.warmup_fraction = 0.5;
    auto a = runSingleCore(trace, std::make_unique<BasicLruPolicy>(),
                           none);
    auto b = runSingleCore(trace, std::make_unique<BasicLruPolicy>(),
                           half);
    EXPECT_GT(a.instructions, b.instructions);
}

TEST(Simulator, MultiCoreRunsAllCores)
{
    auto t0 = streamingTrace(20000, 1);
    auto t1 = streamingTrace(30000, 1);
    SimOptions opts;
    opts.hierarchy = HierarchyConfig::forCores(2);
    opts.warmup_fraction = 0.1;
    auto res = runMultiCore({&t0, &t1},
                            std::make_unique<BasicLruPolicy>(), 10000,
                            opts);
    ASSERT_EQ(res.ipc_shared.size(), 2u);
    EXPECT_GT(res.ipc_shared[0], 0.0);
    EXPECT_GT(res.ipc_shared[1], 0.0);
}

TEST(Simulator, MultiCoreRewindsShortTraces)
{
    auto t0 = streamingTrace(100, 1); // far shorter than the quota
    auto t1 = streamingTrace(20000, 1);
    SimOptions opts;
    opts.hierarchy = HierarchyConfig::forCores(2);
    opts.warmup_fraction = 0.0;
    auto res = runMultiCore({&t0, &t1},
                            std::make_unique<BasicLruPolicy>(), 5000,
                            opts);
    EXPECT_GT(res.ipc_shared[0], 0.0);
}

} // namespace
} // namespace sim
} // namespace glider

namespace glider {
namespace sim {
namespace {

TEST(Simulator, MultiCorePrivateAddressSpaces)
{
    // Two cores running the *same* trace must not constructively
    // share LLC lines: the driver folds the core id into the
    // physical address, so per-core data is disjoint.
    traces::Trace t("dup");
    for (int i = 0; i < 30000; ++i)
        t.push(0x400000, static_cast<std::uint64_t>(i % 3000) * 4096);

    SimOptions opts;
    opts.hierarchy = HierarchyConfig::forCores(2);
    opts.warmup_fraction = 0.0;
    auto solo = runMultiCore({&t}, std::make_unique<BasicLruPolicy>(),
                             20000, opts);
    auto dup = runMultiCore({&t, &t},
                            std::make_unique<BasicLruPolicy>(), 20000,
                            opts);
    // With sharing, the second core would hit on the first core's
    // fills and the total misses would collapse; with disjoint
    // address spaces the duplicated run misses at least as much per
    // core as the solo run.
    EXPECT_GE(dup.llc.misses + dup.llc.misses / 10,
              2 * solo.llc.misses);
}

TEST(Simulator, MultiCoreLlcIsSharedCapacity)
{
    // One core with a 2-core-sized LLC fits its working set; four
    // duplicated cores must contend and miss more in total than 4x
    // a quarter-share would suggest. Weak sanity check: per-core
    // shared IPC does not exceed solo IPC (no free lunch).
    traces::Trace t("ws");
    for (int i = 0; i < 40000; ++i)
        t.push(0x400000, static_cast<std::uint64_t>(i % 40000) * 64);
    SimOptions opts;
    opts.hierarchy = HierarchyConfig::forCores(2);
    opts.warmup_fraction = 0.0;
    auto solo = runMultiCore({&t}, std::make_unique<BasicLruPolicy>(),
                             30000, opts);
    auto shared = runMultiCore({&t, &t},
                               std::make_unique<BasicLruPolicy>(),
                               30000, opts);
    EXPECT_LE(shared.ipc_shared[0], solo.ipc_shared[0] * 1.02);
}

} // namespace
} // namespace sim
} // namespace glider
