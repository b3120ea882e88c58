#include "cache.hh"

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace glider {
namespace sim {

Cache::Cache(const CacheConfig &config,
             std::unique_ptr<ReplacementPolicy> policy, unsigned cores)
    : config_(config), policy_(std::move(policy)),
      num_sets_(config.sets()), cores_(cores)
{
    GLIDER_ASSERT(policy_ != nullptr);
    GLIDER_ASSERT((num_sets_ & (num_sets_ - 1)) == 0);
    reset();
}

void
Cache::reset()
{
    tags_.assign(num_sets_ * config_.ways, kInvalidTag);
    stats_ = CacheStats{};
    CacheGeometry geom;
    geom.sets = num_sets_;
    geom.ways = config_.ways;
    geom.cores = cores_;
    policy_->reset(geom);
}

bool
Cache::access(std::uint8_t core, std::uint64_t pc,
              std::uint64_t block_addr, bool is_write)
{
    GLIDER_ASSERT(block_addr != kInvalidTag);
    ++stats_.accesses;
    std::uint64_t set = setIndex(block_addr);
    std::uint64_t *base = &tags_[set * config_.ways];

    ReplacementAccess acc;
    acc.set = set;
    acc.pc = pc;
    acc.block_addr = block_addr;
    acc.core = core;
    acc.is_write = is_write;

    for (std::uint32_t way = 0; way < config_.ways; ++way) {
        if (base[way] == block_addr) {
            ++stats_.hits;
            policy_->onHit(acc, way);
            return true;
        }
    }

    ++stats_.misses;
    std::uint32_t victim =
        policy_->victimWay(acc, SetView{base, config_.ways});
    if (victim >= config_.ways) {
        // Bypass: the line is forwarded without being cached.
        ++stats_.bypasses;
        return false;
    }
    if (base[victim] != kInvalidTag) {
        ++stats_.evictions;
        policy_->onEvict(acc, victim, LineView{true, base[victim]});
    }
    base[victim] = block_addr;
    policy_->onInsert(acc, victim);
    return false;
}

void
CacheStats::exportMetrics(obs::Registry &registry,
                          const std::string &prefix) const
{
    registry.setCounter(prefix + ".accesses", accesses);
    registry.setCounter(prefix + ".hits", hits);
    registry.setCounter(prefix + ".misses", misses);
    registry.setCounter(prefix + ".bypasses", bypasses);
    registry.setCounter(prefix + ".evictions", evictions);
    registry.setGauge(prefix + ".miss_rate", missRate());
}

bool
Cache::probe(std::uint64_t block_addr) const
{
    GLIDER_ASSERT(block_addr != kInvalidTag);
    std::uint64_t set = setIndex(block_addr);
    const std::uint64_t *base = &tags_[set * config_.ways];
    for (std::uint32_t way = 0; way < config_.ways; ++way) {
        if (base[way] == block_addr)
            return true;
    }
    return false;
}

} // namespace sim
} // namespace glider
