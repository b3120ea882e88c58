/**
 * @file
 * The private-level walk of an in-memory trace, done once per trace.
 *
 * The hierarchy is non-inclusive, so an access's L1/L2 outcome
 * depends only on the trace and the L1/L2 shapes, never on the LLC
 * policy or the core model. walkMemo() walks a trace's records
 * through one core's L1/L2 on first use and memoises the outcome on
 * the trace (traces::Trace::memo) as one 2-bit AccessDepth per access:
 * L1, L2, or Llc for "beyond L2". Every later single-core replay of
 * the trace (runSingleCore) and every MIN stream cut from it
 * (opt::extractLlcStream) reads those codes beside the records
 * instead of walking the private levels again.
 */

#ifndef GLIDER_CACHESIM_WALK_MEMO_HH
#define GLIDER_CACHESIM_WALK_MEMO_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cache_config.hh"
#include "hierarchy.hh"
#include "traces/trace.hh"

namespace glider {
namespace obs {
class Registry;
}

namespace sim {

/** Per-access private-level outcomes, packed four to a byte. */
class DepthCodes
{
  public:
    explicit DepthCodes(std::span<const std::uint8_t> packed)
        : packed_(packed)
    {
    }

    /** Where access @p i stopped: L1, L2, or Llc (beyond L2). */
    AccessDepth
    operator[](std::size_t i) const
    {
        return static_cast<AccessDepth>(
            (packed_[i >> 2] >> ((i & 3) << 1)) & 3);
    }

  private:
    std::span<const std::uint8_t> packed_;
};

/**
 * Walk every record of @p trace through the private L1/L2 of
 * @p config and pack each access's depth into @p codes. With
 * @p per_core each record walks its own core's levels (rec.core, as
 * in a multi-core Hierarchy); otherwise all walk one core's, as in
 * runSingleCore.
 */
void walkPrivateLevels(const traces::Trace &trace,
                       const HierarchyConfig &config, bool per_core,
                       std::vector<std::uint8_t> &codes);

/**
 * The single-core depth codes of @p trace under @p config's L1 and L2
 * shapes, walked on the first request and memoised on the trace until
 * its records change. Safe to call from several threads at once: one
 * walks, the others wait for it.
 */
DepthCodes walkMemo(const traces::Trace &trace,
                    const HierarchyConfig &config);

/** Process-wide walkMemo() tallies. */
struct WalkTally
{
    std::uint64_t walks = 0;  //!< calls that walked the trace
    std::uint64_t reuses = 0; //!< calls that found the walk memoised

    /** Set @p prefix.l1l2_walks and @p prefix.l1l2_walk_reuses. */
    void exportMetrics(obs::Registry &registry,
                       const std::string &prefix) const;
};

/** The tallies so far (always on: two relaxed counters). */
WalkTally walkTally();

} // namespace sim
} // namespace glider

#endif // GLIDER_CACHESIM_WALK_MEMO_HH
