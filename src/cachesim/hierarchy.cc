#include "hierarchy.hh"

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace glider {
namespace sim {

PrivateWalk::PrivateWalk(const HierarchyConfig &config, unsigned cores)
    : l1_(cores, PrivateLru(config.l1)), l2_(cores, PrivateLru(config.l2))
{
    GLIDER_ASSERT(cores >= 1);
}

void
PrivateWalk::clearStats()
{
    for (auto &c : l1_)
        c.clearStats();
    for (auto &c : l2_)
        c.clearStats();
}

void
PrivateWalk::exportMetrics(obs::Registry &registry,
                           const std::string &prefix) const
{
    for (unsigned c = 0; c < cores(); ++c) {
        std::string core = "core" + std::to_string(c);
        l1_[c].stats().exportMetrics(registry, prefix + ".l1." + core);
        l2_[c].stats().exportMetrics(registry, prefix + ".l2." + core);
    }
}

SharedLlc::SharedLlc(const CacheConfig &config,
                     std::unique_ptr<ReplacementPolicy> policy,
                     unsigned cores)
    : cache_(config, std::move(policy), cores),
      core_accesses_(cores, 0), core_misses_(cores, 0)
{
}

void
SharedLlc::clearStats()
{
    cache_.clearStats();
    core_accesses_.assign(core_accesses_.size(), 0);
    core_misses_.assign(core_misses_.size(), 0);
}

void
SharedLlc::exportMetrics(obs::Registry &registry,
                         const std::string &prefix) const
{
    for (std::size_t c = 0; c < core_accesses_.size(); ++c) {
        std::string core = prefix + ".llc.core" + std::to_string(c);
        registry.setCounter(core + ".accesses", core_accesses_[c]);
        registry.setCounter(core + ".misses", core_misses_[c]);
    }
    cache_.stats().exportMetrics(registry, prefix + ".llc.shared");
    cache_.policy().exportMetrics(registry, prefix + ".llc.policy");
}

Hierarchy::Hierarchy(const HierarchyConfig &config, unsigned cores,
                     std::unique_ptr<ReplacementPolicy> llc_policy)
    : config_(config), latency_(depthLatencies(config)),
      walk_(config, cores), llc_(config.llc, std::move(llc_policy), cores)
{
}

void
Hierarchy::exportMetrics(obs::Registry &registry,
                         const std::string &prefix) const
{
    walk_.exportMetrics(registry, prefix);
    llc_.exportMetrics(registry, prefix);
}

void
Hierarchy::clearStatsCounters()
{
    walk_.clearStats();
    llc_.clearStats();
}

} // namespace sim
} // namespace glider
