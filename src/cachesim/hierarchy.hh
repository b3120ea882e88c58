/**
 * @file
 * Three-level cache hierarchy: private L1D and L2 per core (fixed
 * true LRU), shared LLC running the replacement policy under study
 * (Table 1 shapes).
 *
 * The hierarchy is non-inclusive with no back-invalidation, so an
 * access's L1/L2 outcome depends only on its own core's access
 * sequence, never on the LLC policy or the core model. The walk is
 * therefore split into two halves: PrivateWalk (every core's L1/L2)
 * and SharedLlc (the LLC and its per-core traffic). Hierarchy is
 * their sequential composition. The single-core replay of an
 * in-memory trace runs PrivateWalk once per trace and memoises its
 * outcome (walk_memo.hh), which opt::extractLlcStream filters too; a
 * streamed replay runs the two halves as two stages, on two threads
 * when a CPU is free (replay_stages.hh).
 */

#ifndef GLIDER_CACHESIM_HIERARCHY_HH
#define GLIDER_CACHESIM_HIERARCHY_HH

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "cache.hh"
#include "cache_config.hh"
#include "common/logging.hh"
#include "private_lru.hh"
#include "traces/access.hh"

namespace glider {
namespace sim {

/** Deepest level an access had to travel to. */
enum class AccessDepth : std::uint8_t { L1, L2, Llc, Dram };

/** Round-trip latency (core cycles) per AccessDepth, indexed by it. */
using DepthLatencies = std::array<std::uint32_t, 4>;

/** The latency table of @p config: each level adds its own latency. */
inline DepthLatencies
depthLatencies(const HierarchyConfig &config)
{
    DepthLatencies lat{};
    lat[0] = config.l1.latency;
    lat[1] = lat[0] + config.l2.latency;
    lat[2] = lat[1] + config.llc.latency;
    lat[3] = lat[2] + config.dram_latency;
    return lat;
}

/** Factory for the LLC policy under study. */
using PolicyFactory = std::function<std::unique_ptr<ReplacementPolicy>()>;

/** Private half of the walk: every core's L1 and L2. */
class PrivateWalk
{
  public:
    PrivateWalk(const HierarchyConfig &config, unsigned cores);

    /**
     * Walk @p block through @p core's L1, then its L2, filling on a
     * miss. @return L1 or L2 where it hit, else AccessDepth::Llc: the
     * access goes on to the LLC.
     */
    AccessDepth
    access(std::uint8_t core, std::uint64_t block)
    {
        GLIDER_ASSERT(core < l1_.size());
        if (l1_[core].access(block))
            return AccessDepth::L1;
        if (l2_[core].access(block))
            return AccessDepth::L2;
        return AccessDepth::Llc;
    }

    const PrivateLru &l1(unsigned core) const { return l1_[core]; }
    const PrivateLru &l2(unsigned core) const { return l2_[core]; }
    unsigned cores() const { return static_cast<unsigned>(l1_.size()); }

    /** Zero every level's counters (cache state kept). */
    void clearStats();

    /** Export l1.core<N> and l2.core<N> under @p prefix. */
    void exportMetrics(obs::Registry &registry,
                       const std::string &prefix) const;

  private:
    std::vector<PrivateLru> l1_; //!< per core
    std::vector<PrivateLru> l2_; //!< per core
};

/** Shared half of the walk: the LLC and its per-core traffic. */
class SharedLlc
{
  public:
    SharedLlc(const CacheConfig &config,
              std::unique_ptr<ReplacementPolicy> policy, unsigned cores);

    /**
     * Access the LLC for a request that missed @p core's L2.
     * @return AccessDepth::Llc on a hit, AccessDepth::Dram on a miss.
     */
    AccessDepth
    access(std::uint8_t core, std::uint64_t pc, std::uint64_t block,
           bool is_write)
    {
        ++core_accesses_[core];
        if (cache_.access(core, pc, block, is_write))
            return AccessDepth::Llc;
        ++core_misses_[core];
        return AccessDepth::Dram;
    }

    Cache &cache() { return cache_; }
    const Cache &cache() const { return cache_; }
    std::uint64_t accessesFor(unsigned core) const
    {
        return core_accesses_[core];
    }
    std::uint64_t missesFor(unsigned core) const
    {
        return core_misses_[core];
    }

    /** Zero the LLC and per-core counters (cache state kept). */
    void clearStats();

    /**
     * Export llc.core<N>.accesses/misses, llc.shared and the policy's
     * telemetry (llc.policy) under @p prefix.
     */
    void exportMetrics(obs::Registry &registry,
                       const std::string &prefix) const;

  private:
    Cache cache_;
    std::vector<std::uint64_t> core_accesses_;
    std::vector<std::uint64_t> core_misses_;
};

/** Private L1/L2 per core plus a shared LLC. */
class Hierarchy
{
  public:
    /**
     * @param config Level shapes and latencies.
     * @param cores Number of cores (private L1/L2 each).
     * @param llc_policy LLC replacement policy instance.
     */
    Hierarchy(const HierarchyConfig &config, unsigned cores,
              std::unique_ptr<ReplacementPolicy> llc_policy);

    /**
     * Walk one access down the hierarchy, filling on the way back:
     * the private walk, then the LLC if it missed L2.
     * @return deepest level reached.
     */
    AccessDepth
    access(std::uint8_t core, std::uint64_t pc, std::uint64_t byte_addr,
           bool is_write)
    {
        std::uint64_t block = traces::blockAddr(byte_addr);
        AccessDepth depth = walk_.access(core, block);
        if (depth != AccessDepth::Llc)
            return depth;
        return llc_.access(core, pc, block, is_write);
    }

    /** Round-trip latency (core cycles) for a given depth. */
    std::uint32_t
    latency(AccessDepth depth) const
    {
        return latency_[static_cast<std::size_t>(depth)];
    }

    const PrivateLru &l1(unsigned core) const { return walk_.l1(core); }
    const PrivateLru &l2(unsigned core) const { return walk_.l2(core); }
    Cache &llc() { return llc_.cache(); }
    const Cache &llc() const { return llc_.cache(); }
    const HierarchyConfig &config() const { return config_; }
    unsigned cores() const { return walk_.cores(); }

    /** LLC accesses/misses observed for a given core. */
    std::uint64_t llcAccessesFor(unsigned core) const
    {
        return llc_.accessesFor(core);
    }
    std::uint64_t llcMissesFor(unsigned core) const
    {
        return llc_.missesFor(core);
    }

    /** Zero all per-level and per-core counters (cache state kept). */
    void clearStatsCounters();

    /**
     * Snapshot every level's stats — l1.core<N>/l2.core<N>/llc
     * subtrees, per-core LLC traffic and the LLC policy's telemetry —
     * into @p registry under @p prefix. Values are set, not
     * accumulated, so re-exporting into one registry is idempotent.
     * Per core, the access-depth (hence latency) distribution is
     * l1.core<N>.hits, l2.core<N>.hits, llc.core<N>.accesses -
     * llc.core<N>.misses (LLC hits) and llc.core<N>.misses (DRAM).
     */
    void exportMetrics(obs::Registry &registry,
                       const std::string &prefix) const;

  private:
    HierarchyConfig config_;
    DepthLatencies latency_;
    PrivateWalk walk_;
    SharedLlc llc_;
};

} // namespace sim
} // namespace glider

#endif // GLIDER_CACHESIM_HIERARCHY_HH
