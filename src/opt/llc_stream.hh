/**
 * @file
 * LLC access-stream extraction.
 *
 * The paper trains and labels on traces of *LLC* accesses generated
 * by running applications through ChampSim (§5.1). Because the
 * private L1/L2 levels use a fixed LRU policy and the hierarchy is
 * non-inclusive, the LLC access stream is identical regardless of
 * the LLC replacement policy under study — so it can be extracted
 * once per workload and reused by every offline model and by the
 * BeladyPolicy oracle rows. On a single-core trace the extraction is a
 * filter over the private-level walk memoised on the trace, so MIN's
 * stream and every replay of the trace share one walk.
 */

#ifndef GLIDER_OPT_LLC_STREAM_HH
#define GLIDER_OPT_LLC_STREAM_HH

#include "cachesim/cache_config.hh"
#include "traces/trace.hh"

namespace glider {
namespace opt {

/**
 * Filter @p cpu_trace through L1 and L2 (per Table 1, LRU) and return
 * the stream of accesses that reach the LLC. Each record walks the
 * private levels of its own core (rec.core), as in sim::Hierarchy.
 * When every record is on core 0, this filters the trace's memoised
 * walk (cachesim/walk_memo.hh), the one sim::runSingleCore reads.
 */
traces::Trace extractLlcStream(const traces::Trace &cpu_trace,
                               const sim::HierarchyConfig &config
                               = sim::HierarchyConfig());

} // namespace opt
} // namespace glider

#endif // GLIDER_OPT_LLC_STREAM_HH
