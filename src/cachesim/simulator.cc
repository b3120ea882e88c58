#include "simulator.hh"

#include <chrono>

#include "common/logging.hh"

namespace glider {
namespace sim {

namespace {

/**
 * Poll interval for the cooperative cancellation token: frequent
 * enough that a soft deadline lands within milliseconds, coarse
 * enough that the check is invisible next to the access itself.
 */
constexpr std::uint64_t kCancelCheckMask = 4095;

/**
 * Per-core read cursor over an AccessSource: a position inside the
 * current chunk. Refilling walks to the next chunk and wraps (rewind)
 * at end-of-stream, which is exactly the old in-memory
 * `cursor = (cursor + 1) % size` early-finisher rule.
 */
struct ChunkCursor
{
    std::span<const traces::AccessRecord> chunk;
    std::size_t pos = 0;
};

} // namespace

SingleCoreResult
runSingleCore(AccessSource &source,
              std::unique_ptr<ReplacementPolicy> llc_policy,
              const SimOptions &opts)
{
    GLIDER_ASSERT(source.size() > 0);
    Hierarchy hier(opts.hierarchy, 1, std::move(llc_policy));
    CoreModel core(opts.core);

    SingleCoreResult res;
    res.workload = source.name();
    res.policy = hier.llc().policy().name();

    auto warmup_end = static_cast<std::uint64_t>(
        opts.warmup_fraction * static_cast<double>(source.size()));
    auto start = std::chrono::steady_clock::now();
    source.rewind();
    std::uint64_t i = 0;
    for (auto chunk = source.nextChunk(); !chunk.empty();
         chunk = source.nextChunk()) {
        for (const auto &rec : chunk) {
            if (opts.cancel && (i & kCancelCheckMask) == 0)
                opts.cancel->throwIfCancelled();
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
    res.sim_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    res.accesses_simulated = i;

    res.instructions = core.instructions();
    res.cycles = core.cycles();
    res.ipc = core.ipc();
    res.llc = hier.llc().stats();
    return res;
}

SingleCoreResult
runSingleCore(const traces::Trace &trace,
              std::unique_ptr<ReplacementPolicy> llc_policy,
              const SimOptions &opts)
{
    GLIDER_ASSERT(!trace.empty());
    TraceSource source(trace);
    return runSingleCore(source, std::move(llc_policy), opts);
}

MultiCoreResult
runMultiCore(std::span<AccessSource *const> sources,
             std::unique_ptr<ReplacementPolicy> llc_policy,
             std::uint64_t min_accesses_per_core, const SimOptions &opts)
{
    auto cores = static_cast<unsigned>(sources.size());
    GLIDER_ASSERT(cores >= 1);
    for (auto *s : sources)
        GLIDER_ASSERT(s && s->size() > 0);

    Hierarchy hier(opts.hierarchy, cores, std::move(llc_policy));
    std::vector<CoreModel> models(cores, CoreModel(opts.core));
    std::vector<ChunkCursor> cursor(cores);
    std::vector<std::uint64_t> executed(cores, 0);

    MultiCoreResult res;
    res.policy = hier.llc().policy().name();
    for (auto *s : sources) {
        s->rewind();
        res.workloads.push_back(s->name()); // glider-lint: allow(hotpath-alloc) per-run setup
    }

    std::uint64_t warmup = static_cast<std::uint64_t>(
        opts.warmup_fraction * static_cast<double>(min_accesses_per_core));
    bool warm = warmup == 0;
    // Countdown bookkeeping: per-core counters only ever cross their
    // quota once (increments are +1 and only reset at the warm
    // transition), so a count of not-yet-there cores replaces the
    // O(cores) rescan of every `executed` entry on every access.
    unsigned cold_cores = warm ? 0 : cores;
    unsigned pending_cores = min_accesses_per_core > 0 ? cores : 0;

    // Timing-ordered interleave: always advance the core with the
    // lowest accumulated cycle count, which is how simultaneous
    // execution serialises onto the shared LLC. All cores keep
    // running (with stream rewind) until every core has executed its
    // measured quota — the paper's early-finisher rewind rule.
    std::uint64_t iterations = 0;
    while (!warm || pending_cores > 0) {
        if (opts.cancel && (iterations++ & kCancelCheckMask) == 0)
            opts.cancel->throwIfCancelled();
        unsigned next = 0;
        for (unsigned c = 1; c < cores; ++c) {
            if (models[c].cycles() < models[next].cycles())
                next = c;
        }
        ChunkCursor &cur = cursor[next];
        while (cur.pos >= cur.chunk.size()) {
            cur.chunk = sources[next]->nextChunk();
            cur.pos = 0;
            if (cur.chunk.empty())
                sources[next]->rewind();
        }
        const auto &rec = cur.chunk[cur.pos++];
        // Each core runs its own process: disambiguate the virtual
        // address spaces (workload kernels all allocate from the
        // same base) by folding the core id into the high bits.
        std::uint64_t addr =
            rec.address | (static_cast<std::uint64_t>(next) << 44);
        AccessDepth depth = hier.access(static_cast<std::uint8_t>(next),
                                        rec.pc, addr, rec.is_write);
        models[next].step(depth, hier.latency(depth));
        ++executed[next];

        if (!warm) {
            if (executed[next] == warmup && --cold_cores == 0) {
                warm = true;
                hier.clearStatsCounters();
                for (auto &m : models)
                    m.clearCounters();
                // glider-lint: allow(hotpath-alloc) once per run, at
                // the warm transition; assign reuses capacity
                executed.assign(cores, 0);
            }
        } else if (executed[next] == min_accesses_per_core) {
            --pending_cores;
        }
    }

    for (unsigned c = 0; c < cores; ++c) {
        models[c].finish();
        // glider-lint: allow(hotpath-alloc) per-run result assembly
        res.ipc_shared.push_back(models[c].ipc());
    }
    res.llc = hier.llc().stats();
    return res;
}

MultiCoreResult
runMultiCore(const std::vector<const traces::Trace *> &traces,
             std::unique_ptr<ReplacementPolicy> llc_policy,
             std::uint64_t min_accesses_per_core, const SimOptions &opts)
{
    for (auto *t : traces)
        GLIDER_ASSERT(t && !t->empty());
    std::vector<TraceSource> wrapped;
    // glider-lint: allow(hotpath-alloc) per-run setup
    wrapped.reserve(traces.size());
    for (auto *t : traces)
        wrapped.emplace_back(*t); // glider-lint: allow(hotpath-alloc) per-run setup
    std::vector<AccessSource *> sources;
    // glider-lint: allow(hotpath-alloc) per-run setup
    sources.reserve(wrapped.size());
    for (auto &w : wrapped)
        sources.push_back(&w); // glider-lint: allow(hotpath-alloc) per-run setup
    return runMultiCore(sources, std::move(llc_policy),
                        min_accesses_per_core, opts);
}

} // namespace sim
} // namespace glider
