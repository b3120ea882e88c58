/**
 * @file
 * Single-core and multi-core simulation drivers implementing the
 * paper's §5.1 methodology: warmup then measurement for single-core
 * runs; simultaneous execution with trace rewind and weighted-speedup
 * reporting for 4-core mixes.
 */

#ifndef GLIDER_CACHESIM_SIMULATOR_HH
#define GLIDER_CACHESIM_SIMULATOR_HH

#include <span>
#include <string>
#include <vector>

#include "access_source.hh"
#include "common/cancellation.hh"
#include "core_model.hh"
#include "hierarchy.hh"
#include "traces/trace.hh"

namespace glider {
namespace sim {

/** Result of one single-core run. */
struct SingleCoreResult
{
    std::string workload;
    std::string policy;
    std::uint64_t instructions = 0;
    double cycles = 0.0;
    double ipc = 0.0;
    CacheStats llc; //!< measured-phase LLC stats
    std::uint64_t accesses_simulated = 0; //!< trace records replayed
    double sim_seconds = 0.0; //!< wall time of the replay loop

    double llcMissRate() const { return llc.missRate(); }

    /** Harness throughput: trace accesses replayed per wall second. */
    double
    accessesPerSec() const
    {
        return sim_seconds > 0.0
            ? static_cast<double>(accesses_simulated) / sim_seconds
            : 0.0;
    }

    /** LLC misses per kilo-instruction. */
    double
    mpki() const
    {
        return instructions
            ? 1000.0 * static_cast<double>(llc.misses)
                / static_cast<double>(instructions)
            : 0.0;
    }
};

/** Result of one multi-core mix run. */
struct MultiCoreResult
{
    std::vector<std::string> workloads;
    std::string policy;
    std::vector<double> ipc_shared; //!< per-core shared-mode IPC
    CacheStats llc;
};

/** Options shared by the drivers. */
struct SimOptions
{
    HierarchyConfig hierarchy;
    CoreParams core;
    double warmup_fraction = 0.2; //!< accesses before stats reset
    /**
     * Optional cooperative cancellation: when set, the replay loops
     * poll the token every few thousand accesses and unwind with
     * CancelledError once it fires (soft deadline or stop request).
     * The token must outlive the run; nullptr disables polling.
     */
    const CancelToken *cancel = nullptr;
};

/**
 * Run @p source on a single core with @p llc_policy in the LLC.
 * The first warmup_fraction of accesses prime the caches, then all
 * counters reset and the remainder is measured (the paper warms 200M
 * instructions and measures 1B). This is the one replay loop — the
 * Trace overload delegates here, so streamed and in-memory runs are
 * bit-identical by construction.
 */
SingleCoreResult runSingleCore(AccessSource &source,
                               std::unique_ptr<ReplacementPolicy>
                                   llc_policy,
                               const SimOptions &opts = SimOptions());

/** In-memory convenience overload of the AccessSource driver. */
SingleCoreResult runSingleCore(const traces::Trace &trace,
                               std::unique_ptr<ReplacementPolicy>
                                   llc_policy,
                               const SimOptions &opts = SimOptions());

/**
 * Run one source per core simultaneously against a shared LLC.
 * Cores proceed in timing order; a core whose stream is exhausted
 * rewinds until every core has executed @p min_accesses_per_core
 * measured accesses (the paper's 250M-instruction rule).
 */
MultiCoreResult runMultiCore(std::span<AccessSource *const> sources,
                             std::unique_ptr<ReplacementPolicy>
                                 llc_policy,
                             std::uint64_t min_accesses_per_core,
                             const SimOptions &opts);

/** In-memory convenience overload of the AccessSource driver. */
MultiCoreResult runMultiCore(const std::vector<const traces::Trace *>
                                 &traces,
                             std::unique_ptr<ReplacementPolicy>
                                 llc_policy,
                             std::uint64_t min_accesses_per_core,
                             const SimOptions &opts);

} // namespace sim
} // namespace glider

#endif // GLIDER_CACHESIM_SIMULATOR_HH
