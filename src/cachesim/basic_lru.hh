/**
 * @file
 * Built-in true-LRU replacement: the paper's LLC baseline (via
 * policies::LruPolicy, an alias of this mechanism) and the reference
 * model that sim::PrivateLru, the private levels' fixed LRU, is
 * tested against.
 */

#ifndef GLIDER_CACHESIM_BASIC_LRU_HH
#define GLIDER_CACHESIM_BASIC_LRU_HH

#include <vector>

#include "replacement.hh"

namespace glider {
namespace sim {

/** True-LRU: per-line 64-bit timestamps, oldest way evicted. */
class BasicLruPolicy : public ReplacementPolicy
{
  public:
    std::string name() const override { return "LRU"; }

    void
    reset(const CacheGeometry &geom) override
    {
        geom_ = geom;
        stamps_.assign(geom.sets * geom.ways, 0);
        clock_ = 0;
    }

    std::uint32_t
    victimWay(const ReplacementAccess &access, SetView lines)
        noexcept override
    {
        // First empty way, else the first minimal stamp. An empty way
        // scans as stamp 0, below every filled way's (>= 1), so one
        // minimum scan covers both; it is written as selects, which
        // compile to conditional moves (see PrivateLru::access).
        const std::uint64_t *row = &stamps_[access.set * geom_.ways];
        std::uint32_t victim = 0;
        std::uint64_t oldest = lines.tags[0] == kInvalidTag ? 0 : row[0];
        for (std::uint32_t w = 1; w < geom_.ways; ++w) {
            const std::uint64_t stamp =
                lines.tags[w] == kInvalidTag ? 0 : row[w];
            const bool older = stamp < oldest;
            victim = older ? w : victim;
            oldest = older ? stamp : oldest;
        }
        return victim;
    }

    void
    onHit(const ReplacementAccess &access, std::uint32_t way)
        noexcept override
    {
        touch(access.set, way);
    }

    void
    onEvict(const ReplacementAccess &, std::uint32_t,
            const LineView &) noexcept override
    {
    }

    void
    onInsert(const ReplacementAccess &access, std::uint32_t way)
        noexcept override
    {
        touch(access.set, way);
    }

  private:
    void
    touch(std::uint64_t set, std::uint32_t way) noexcept
    {
        stamps_[set * geom_.ways + way] = ++clock_;
    }

    CacheGeometry geom_;
    std::vector<std::uint64_t> stamps_;
    std::uint64_t clock_ = 0;
};

} // namespace sim
} // namespace glider

#endif // GLIDER_CACHESIM_BASIC_LRU_HH
