/**
 * @file
 * Fixed true-LRU cache level for the private L1/L2.
 *
 * The private levels never run the policy under study, so they need
 * none of sim::Cache's plug-in machinery: no virtual hooks, no
 * ReplacementAccess per access. Tags are packed one block address per
 * way (kInvalidTag when empty) beside one 64-bit LRU stamp per way.
 * Hit and miss sequences, and every CacheStats counter, equal those
 * of sim::Cache driven by BasicLruPolicy on the same geometry.
 */

#ifndef GLIDER_CACHESIM_PRIVATE_LRU_HH
#define GLIDER_CACHESIM_PRIVATE_LRU_HH

#include <cstdint>
#include <vector>

#include "cache.hh"
#include "cache_config.hh"
#include "common/logging.hh"

namespace glider {
namespace sim {

/** One private set-associative level with built-in true LRU. */
class PrivateLru
{
  public:
    explicit PrivateLru(const CacheConfig &config)
        : ways_(config.ways), set_mask_(config.sets() - 1),
          tags_(config.sets() * config.ways, kInvalidTag),
          stamps_(config.sets() * config.ways, 0)
    {
        GLIDER_ASSERT(config.sets() >= 1
                      && (config.sets() & set_mask_) == 0);
    }

    /**
     * Look @p block_addr up; on a miss fill it, evicting the least
     * recently used way. @p block_addr must not be kInvalidTag.
     * @return true on hit.
     */
    bool
    access(std::uint64_t block_addr) noexcept
    {
        GLIDER_ASSERT(block_addr != kInvalidTag);
        ++stats_.accesses;
        const std::uint32_t ways = ways_;
        const std::uint64_t base = (block_addr & set_mask_) * ways;
        std::uint64_t *tags = &tags_[base];
        std::uint64_t *stamps = &stamps_[base];
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (tags[w] == block_addr) {
                ++stats_.hits;
                stamps[w] = ++clock_;
                return true;
            }
        }

        // Empty ways keep stamp 0 and filled ways carry stamps >= 1,
        // so the first minimal stamp is the first empty way if there
        // is one, else the least recently used way: BasicLruPolicy's
        // victim. The scan is written as selects, which compile to
        // conditional moves: as a branch, "older than the oldest so
        // far" is data-dependent and mispredicts on most misses.
        ++stats_.misses;
        std::uint32_t victim = 0;
        std::uint64_t oldest = stamps[0];
        for (std::uint32_t w = 1; w < ways; ++w) {
            const bool older = stamps[w] < oldest;
            victim = older ? w : victim;
            oldest = older ? stamps[w] : oldest;
        }
        if (tags[victim] != kInvalidTag)
            ++stats_.evictions;
        tags[victim] = block_addr;
        stamps[victim] = ++clock_;
        return false;
    }

    const CacheStats &stats() const { return stats_; }

    /** Zero the hit/miss counters without disturbing cache state. */
    void clearStats() { stats_ = CacheStats{}; }

  private:
    std::uint32_t ways_;
    std::uint64_t set_mask_;
    std::vector<std::uint64_t> tags_;   //!< sets x ways, row-major
    std::vector<std::uint64_t> stamps_; //!< last-touch clock per way
    std::uint64_t clock_ = 0;
    CacheStats stats_;
};

} // namespace sim
} // namespace glider

#endif // GLIDER_CACHESIM_PRIVATE_LRU_HH
