#include "hierarchy.hh"

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace glider {
namespace sim {

Hierarchy::Hierarchy(const HierarchyConfig &config, unsigned cores,
                     std::unique_ptr<ReplacementPolicy> llc_policy)
    : config_(config), cores_(cores), l1_(cores, PrivateLru(config.l1)),
      l2_(cores, PrivateLru(config.l2)),
      llc_(config.llc, std::move(llc_policy), cores),
      llc_core_accesses_(cores, 0), llc_core_misses_(cores, 0)
{
    GLIDER_ASSERT(cores >= 1);
}

AccessDepth
Hierarchy::accessBeyondL1(std::uint8_t core, std::uint64_t pc,
                          std::uint64_t block, bool is_write)
{
    if (l2_[core].access(block))
        return AccessDepth::L2;
    ++llc_core_accesses_[core];
    if (llc_.access(core, pc, block, is_write))
        return AccessDepth::Llc;
    ++llc_core_misses_[core];
    return AccessDepth::Dram;
}

std::uint32_t
Hierarchy::latency(AccessDepth depth) const
{
    switch (depth) {
      case AccessDepth::L1:
        return config_.l1.latency;
      case AccessDepth::L2:
        return config_.l1.latency + config_.l2.latency;
      case AccessDepth::Llc:
        return config_.l1.latency + config_.l2.latency
            + config_.llc.latency;
      case AccessDepth::Dram:
        return config_.l1.latency + config_.l2.latency
            + config_.llc.latency + config_.dram_latency;
    }
    GLIDER_PANIC("bad AccessDepth");
}

void
Hierarchy::exportMetrics(obs::Registry &registry,
                         const std::string &prefix) const
{
    for (unsigned c = 0; c < cores_; ++c) {
        std::string core = "core" + std::to_string(c);
        l1_[c].stats().exportMetrics(registry, prefix + ".l1." + core);
        l2_[c].stats().exportMetrics(registry, prefix + ".l2." + core);
        registry.setCounter(prefix + ".llc." + core + ".accesses",
                            llc_core_accesses_[c]);
        registry.setCounter(prefix + ".llc." + core + ".misses",
                            llc_core_misses_[c]);
    }
    llc_.stats().exportMetrics(registry, prefix + ".llc.shared");
    llc_.policy().exportMetrics(registry, prefix + ".llc.policy");
}

void
Hierarchy::clearStatsCounters()
{
    for (auto &c : l1_)
        c.clearStats();
    for (auto &c : l2_)
        c.clearStats();
    llc_.clearStats();
    llc_core_accesses_.assign(cores_, 0);
    llc_core_misses_.assign(cores_, 0);
}

} // namespace sim
} // namespace glider
