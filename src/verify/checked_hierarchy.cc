#include "checked_hierarchy.hh"

#include <string>

#include "invariants.hh"

namespace glider {
namespace verify {

CheckedHierarchy::CheckedHierarchy(
    const sim::HierarchyConfig &config, unsigned cores,
    std::unique_ptr<sim::ReplacementPolicy> llc_policy,
    CheckedPolicy::Options options)
    : cores_(cores)
{
    auto checked = std::make_unique<CheckedPolicy>(std::move(llc_policy),
                                                   options);
    checker_ = checked.get();
    hier_ = std::make_unique<sim::Hierarchy>(config, cores,
                                             std::move(checked));
}

void
CheckedHierarchy::checkCacheCounters(const sim::CacheStats &s,
                                     const char *level)
{
    std::string at = std::string(" at ") + level;
    require(s.hits + s.misses == s.accesses,
            "counter coherence: hits + misses != accesses" + at);
    require(s.bypasses <= s.misses,
            "counter coherence: more bypasses than misses" + at);
    require(s.evictions + s.bypasses <= s.misses,
            "counter coherence: more evictions than insertions" + at);
}

sim::AccessDepth
CheckedHierarchy::access(std::uint8_t core, std::uint64_t pc,
                         std::uint64_t byte_addr, bool is_write)
{
    const sim::CacheStats &llc = hier_->llc().stats();
    std::uint64_t prev_accesses = llc.accesses;
    std::uint64_t prev_hits = llc.hits;
    std::uint64_t prev_misses = llc.misses;

    sim::AccessDepth depth = hier_->access(core, pc, byte_addr, is_write);

    // Depth consistency: the reported depth must match which LLC
    // counters moved during this access.
    switch (depth) {
      case sim::AccessDepth::L1:
      case sim::AccessDepth::L2:
        require(llc.accesses == prev_accesses,
                "depth consistency: private-level hit reached the LLC");
        break;
      case sim::AccessDepth::Llc:
        require(llc.hits == prev_hits + 1,
                "depth consistency: Llc depth without an LLC hit");
        break;
      case sim::AccessDepth::Dram:
        require(llc.misses == prev_misses + 1,
                "depth consistency: Dram depth without an LLC miss");
        break;
    }

    check();
    return depth;
}

void
CheckedHierarchy::check() const
{
    const sim::CacheStats &llc = hier_->llc().stats();

    // Per-level counter coherence.
    for (unsigned c = 0; c < cores_; ++c) {
        checkCacheCounters(hier_->l1(c).stats(), "L1");
        checkCacheCounters(hier_->l2(c).stats(), "L2");
    }
    checkCacheCounters(llc, "LLC");

    // Access-flow conservation: every miss at one level is exactly
    // one access at the next (the model is access-atomic).
    std::uint64_t l2_misses = 0;
    for (unsigned c = 0; c < cores_; ++c) {
        require(hier_->l1(c).stats().misses
                    == hier_->l2(c).stats().accesses,
                "flow conservation: L1 misses != L2 accesses");
        require(hier_->l1(c).stats().bypasses == 0
                    && hier_->l2(c).stats().bypasses == 0,
                "flow conservation: private LRU level bypassed");
        l2_misses += hier_->l2(c).stats().misses;
    }
    require(l2_misses == llc.accesses,
            "flow conservation: summed L2 misses != LLC accesses");

    // Per-core LLC attribution sums to the LLC's own counters.
    std::uint64_t core_accesses = 0, core_misses = 0;
    for (unsigned c = 0; c < cores_; ++c) {
        core_accesses += hier_->llcAccessesFor(c);
        core_misses += hier_->llcMissesFor(c);
    }
    require(core_accesses == llc.accesses,
            "attribution: per-core LLC accesses do not sum to the "
            "LLC access count");
    require(core_misses == llc.misses,
            "attribution: per-core LLC misses do not sum to the "
            "LLC miss count");

    // Warmup accounting: the cache's (resettable) counters must equal
    // the protocol-derived event counts accumulated since the last
    // clearStatsCounters().
    require(llc.hits == checker_->hits() - base_hits_,
            "warmup accounting: LLC hit counter diverged from the "
            "policy-observed hit events");
    require(llc.misses == checker_->misses() - base_misses_,
            "warmup accounting: LLC miss counter diverged from the "
            "policy-observed miss events");
    require(llc.evictions == checker_->evictions() - base_evictions_,
            "warmup accounting: LLC eviction counter diverged from "
            "the policy-observed evictions");
    require(llc.bypasses == checker_->bypasses() - base_bypasses_,
            "warmup accounting: LLC bypass counter diverged from the "
            "policy-observed bypasses");
}

void
CheckedHierarchy::clearStatsCounters()
{
    hier_->clearStatsCounters();
    base_hits_ = checker_->hits();
    base_misses_ = checker_->misses();
    base_evictions_ = checker_->evictions();
    base_bypasses_ = checker_->bypasses();
    check();
}

} // namespace verify
} // namespace glider
