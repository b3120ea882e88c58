/**
 * @file
 * Tests for the parallel experiment infrastructure: the worker pool
 * (completion, exception propagation, shutdown), the process-wide
 * trace cache, and serial-vs-parallel determinism of the bench
 * SweepRunner.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench/bench_common.hh"
#include "common/cpu_budget.hh"
#include "common/thread_pool.hh"
#include "opt/belady.hh"
#include "opt/llc_stream.hh"
#include "traces/trace_cache.hh"

namespace glider {
namespace {

// ---------------------------------------------------------------- pool

TEST(ThreadPool, CompletesAllTasks)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 100; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    int sum = 0;
    for (auto &f : futures)
        sum += f.get();
    int expect = 0;
    for (int i = 0; i < 100; ++i)
        expect += i * i;
    EXPECT_EQ(sum, expect);
}

TEST(ThreadPool, TasksRunConcurrentlySafe)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 64; ++i) {
        futures.push_back(pool.submit([&count] {
            count.fetch_add(1, std::memory_order_relaxed);
        }));
    }
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(2);
    auto ok = pool.submit([] { return 7; });
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_EQ(ok.get(), 7);
    EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks)
{
    ThreadPool pool(1);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 16; ++i) {
        futures.push_back(pool.submit([i] {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            return i;
        }));
    }
    pool.shutdown(); // must run everything still queued, then join
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(futures[i].get(), i);
}

TEST(ThreadPool, SubmitAfterShutdownThrows)
{
    ThreadPool pool(2);
    pool.shutdown();
    EXPECT_THROW(pool.submit([] { return 1; }), std::runtime_error);
    pool.shutdown(); // idempotent
}

TEST(ThreadPool, ZeroThreadsClampedToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.submit([] { return 3; }).get(), 3);
}

TEST(ThreadPool, HoldsItsCpuShareWhileBusy)
{
    // A pool holds min(workers, queued + running tasks) CPUs in the
    // process-wide tally while it has work, and its workers know
    // their CPU is counted.
    const unsigned before = cpu_budget::held();
    std::atomic<bool> go{false};
    ThreadPool pool(2);
    EXPECT_EQ(cpu_budget::held(), before);
    std::vector<std::future<bool>> futures;
    for (int i = 0; i < 3; ++i) {
        futures.push_back(pool.submit([&go] {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            return cpu_budget::onPoolWorker();
        }));
    }
    EXPECT_EQ(cpu_budget::held(), before + 2);
    EXPECT_FALSE(cpu_budget::onPoolWorker());
    go.store(true, std::memory_order_release);
    for (auto &f : futures)
        EXPECT_TRUE(f.get());
    pool.shutdown(); // a worker gives its share back after the task
    EXPECT_EQ(cpu_budget::held(), before);
}

// --------------------------------------------------------- trace cache

TEST(TraceCache, BuilderRunsOncePerKey)
{
    std::atomic<int> builds{0};
    traces::TraceCache cache([&builds](const std::string &name,
                                       std::uint64_t accesses,
                                       traces::Trace &out) {
        ++builds;
        out.setName(name);
        for (std::uint64_t i = 0; i < accesses; ++i)
            out.push(0x400000, i * 64);
    });

    const auto &a = cache.get("w", 100);
    const auto &b = cache.get("w", 100);
    EXPECT_EQ(&a, &b); // the same trace object, not a rebuild
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(a.size(), 100u);

    const auto &c = cache.get("w", 200); // different length: new key
    EXPECT_NE(&a, &c);
    EXPECT_EQ(builds.load(), 2);
    EXPECT_EQ(cache.size(), 2u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    cache.get("w", 100);
    EXPECT_EQ(builds.load(), 3);
}

TEST(TraceCache, ConcurrentRequestsBuildOnce)
{
    std::atomic<int> builds{0};
    traces::TraceCache cache([&builds](const std::string &,
                                       std::uint64_t accesses,
                                       traces::Trace &out) {
        ++builds;
        // Widen the race window: every thread should arrive while the
        // first build is still in flight.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        for (std::uint64_t i = 0; i < accesses; ++i)
            out.push(0x400000, i * 64);
    });

    ThreadPool pool(4);
    std::vector<std::future<const traces::Trace *>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(
            pool.submit([&cache] { return &cache.get("shared", 50); }));
    std::vector<const traces::Trace *> seen;
    for (auto &f : futures)
        seen.push_back(f.get());
    for (const auto *t : seen)
        EXPECT_EQ(t, seen.front());
    const traces::Trace *first = seen.front();
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(first->size(), 50u);
}

TEST(TraceCache, CachedWorkloadTraceMatchesFreshBuild)
{
    const std::uint64_t n = 20'000;
    const auto &cached = workloads::cachedTrace("astar", n);

    traces::Trace fresh("astar");
    workloads::makeWorkload("astar", n)->run(fresh);

    ASSERT_EQ(cached.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ(cached[i].pc, fresh[i].pc);
        EXPECT_EQ(cached[i].address, fresh[i].address);
        EXPECT_EQ(cached[i].is_write, fresh[i].is_write);
        EXPECT_EQ(cached[i].core, fresh[i].core);
    }
}

/** Field-exact equality: parallel runs must be bit-identical. */
void
expectSameResult(const sim::SingleCoreResult &a,
                 const sim::SingleCoreResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.llc.accesses, b.llc.accesses);
    EXPECT_EQ(a.llc.hits, b.llc.hits);
    EXPECT_EQ(a.llc.misses, b.llc.misses);
    EXPECT_EQ(a.llc.bypasses, b.llc.bypasses);
}

TEST(TraceCache, PerPolicyResultsUnchangedVsFreshTrace)
{
    const std::uint64_t n = 20'000;
    traces::Trace fresh("astar");
    workloads::makeWorkload("astar", n)->run(fresh);

    for (const char *policy : {"LRU", "DRRIP", "SHiP++"}) {
        auto from_cache =
            bench::runPolicy(workloads::cachedTrace("astar", n), policy);
        auto from_fresh = bench::runPolicy(fresh, policy);
        expectSameResult(from_cache, from_fresh);
    }
}

// --------------------------------------------------------- sweep runner

/** Queue the test grid on @p sweep via explicit short traces. */
void
queueGrid(bench::SweepRunner &sweep,
          const std::vector<std::string> &names,
          const std::vector<std::string> &policies, std::uint64_t n)
{
    for (const auto &name : names) {
        for (const auto &policy : policies) {
            sweep.addCell([name, policy, n] {
                return bench::runPolicy(workloads::cachedTrace(name, n),
                                        policy);
            });
        }
    }
}

TEST(SweepRunner, SerialAndParallelTablesIdentical)
{
    const std::uint64_t n = 20'000;
    const std::vector<std::string> names = {"astar", "sphinx3"};
    const std::vector<std::string> policies = {"LRU", "DRRIP", "SHiP++"};

    bench::SweepRunner serial(1);
    queueGrid(serial, names, policies, n);
    auto serial_rows = serial.run();

    bench::SweepRunner parallel(4);
    EXPECT_EQ(parallel.threads(), 4u);
    queueGrid(parallel, names, policies, n);
    EXPECT_EQ(parallel.pending(), names.size() * policies.size());
    auto parallel_rows = parallel.run();
    EXPECT_EQ(parallel.pending(), 0u);

    ASSERT_EQ(serial_rows.size(), parallel_rows.size());
    for (std::size_t i = 0; i < serial_rows.size(); ++i)
        expectSameResult(serial_rows[i], parallel_rows[i]);

    // Rows come back in insertion order regardless of completion
    // order: row i is (names[i / P], policies[i % P]).
    for (std::size_t i = 0; i < parallel_rows.size(); ++i) {
        EXPECT_EQ(parallel_rows[i].workload, names[i / policies.size()]);
        EXPECT_EQ(parallel_rows[i].policy, policies[i % policies.size()]);
    }
}

TEST(SweepRunner, MatchesDirectSerialHarness)
{
    const std::uint64_t n = 20'000;
    bench::SweepRunner sweep(3);
    sweep.addCell([n] {
        return bench::runPolicy(workloads::cachedTrace("astar", n),
                                "LRU");
    });
    sweep.addCell([n] {
        return bench::runPolicy(workloads::cachedTrace("astar", n),
                                "SHiP++");
    });
    auto rows = sweep.run();
    ASSERT_EQ(rows.size(), 2u);

    expectSameResult(
        rows[0],
        bench::runPolicy(workloads::cachedTrace("astar", n), "LRU"));
    expectSameResult(
        rows[1],
        bench::runPolicy(workloads::cachedTrace("astar", n), "SHiP++"));
}

TEST(SweepRunner, SweepWalksEachTraceOnce)
{
    // Copies start with no walk memoised, whatever earlier tests did
    // with the cached traces.
    const std::uint64_t n = 20'000;
    std::vector<traces::Trace> traces;
    for (const char *name : {"astar", "sphinx3", "tonto"})
        traces.push_back(workloads::cachedTrace(name, n));
    const std::vector<std::string> policies = {"LRU", "Hawkeye", "MPPPB",
                                               "SHiP++", "Glider"};
    bench::SweepRunner sweep(4);
    for (const auto &t : traces) {
        for (const auto &policy : policies)
            sweep.addCell([&t, policy] { return bench::runPolicy(t, policy); });
        sweep.addCell([&t] {
            sim::SimOptions opts;
            auto stream = opt::extractLlcStream(t, opts.hierarchy);
            return sim::runSingleCore(
                t, std::make_unique<opt::BeladyPolicy>(stream), opts);
        });
    }
    sweep.run();
    obs::Registry reg;
    sweep.exportMetrics(reg, "harness");
    // Per trace: five policy replays, MIN's stream and MIN's replay
    // read one walk.
    EXPECT_EQ(reg.counter("harness.l1l2_walks").value(), 3u);
    EXPECT_EQ(reg.counter("harness.l1l2_walk_reuses").value(), 3u * 6u);
}

TEST(SweepRunner, RethrowsCellExceptions)
{
    bench::SweepRunner sweep(2);
    sweep.addCell([]() -> sim::SingleCoreResult {
        throw std::runtime_error("cell failed");
    });
    EXPECT_THROW(sweep.run(), std::runtime_error);
}

TEST(SweepRunner, ParallelMapPreservesItemOrder)
{
    std::vector<int> items(50);
    for (int i = 0; i < 50; ++i)
        items[i] = i;
    auto out = bench::parallelMap(
        items,
        [](int x) {
            if (x % 7 == 0) // stagger completion order
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
            return x * 3;
        },
        4);
    ASSERT_EQ(out.size(), items.size());
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(out[i], i * 3);
}

} // namespace
} // namespace glider
