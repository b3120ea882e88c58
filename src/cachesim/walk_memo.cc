#include "walk_memo.hh"

#include <algorithm>

#include "common/hash.hh"
#include "obs/metrics.hh"

namespace glider {
namespace sim {

namespace {

obs::Counter &
walkCount()
{
    static obs::Counter walks;
    return walks;
}

obs::Counter &
reuseCount()
{
    static obs::Counter reuses;
    return reuses;
}

/** Memo key of the depth codes: the L1 and L2 shapes. */
std::uint64_t
shapeKey(const HierarchyConfig &config)
{
    std::uint64_t key = 0x77616c6b; // "walk"
    for (const CacheConfig *level : {&config.l1, &config.l2}) {
        key = hashCombine(key, level->size_bytes);
        key = hashCombine(key, level->ways);
    }
    return key;
}

} // namespace

void
walkPrivateLevels(const traces::Trace &trace, const HierarchyConfig &config,
                  bool per_core, std::vector<std::uint8_t> &codes)
{
    unsigned cores = 1;
    if (per_core) {
        for (const auto &rec : trace)
            cores = std::max(cores, rec.core + 1u);
    }
    PrivateWalk walk(config, cores);
    // glider-lint: allow(hotpath-alloc) once per walk of a whole trace
    codes.assign((trace.size() + 3) / 4, 0);
    std::size_t i = 0;
    for (const auto &rec : trace) {
        auto core = per_core ? rec.core : std::uint8_t{0};
        auto depth = walk.access(core, traces::blockAddr(rec.address));
        codes[i >> 2] |= static_cast<std::uint8_t>(
            static_cast<unsigned>(depth) << ((i & 3) << 1));
        ++i;
    }
}

DepthCodes
walkMemo(const traces::Trace &trace, const HierarchyConfig &config)
{
    bool built = false;
    // glider-lint: allow(hotpath-transitive) once per replay: a memo
    // lookup, which allocates only for the first walk of a shape
    auto codes = trace.memo(
        shapeKey(config),
        [&](std::vector<std::uint8_t> &out) {
            walkPrivateLevels(trace, config, false, out);
        },
        &built);
    (built ? walkCount() : reuseCount()).inc();
    return DepthCodes(codes);
}

WalkTally
walkTally()
{
    return {walkCount().value(), reuseCount().value()};
}

void
WalkTally::exportMetrics(obs::Registry &registry,
                         const std::string &prefix) const
{
    registry.setCounter(prefix + ".l1l2_walks", walks);
    registry.setCounter(prefix + ".l1l2_walk_reuses", reuses);
}

} // namespace sim
} // namespace glider
