#include "hierarchy.hh"

#include "basic_lru.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "traces/access.hh"

namespace glider {
namespace sim {

Hierarchy::Hierarchy(const HierarchyConfig &config, unsigned cores,
                     std::unique_ptr<ReplacementPolicy> llc_policy)
    : config_(config), cores_(cores),
      llc_core_accesses_(cores, 0), llc_core_misses_(cores, 0)
{
    GLIDER_ASSERT(cores >= 1);
    for (unsigned c = 0; c < cores; ++c) {
        l1_.push_back(std::make_unique<Cache>(
            config.l1, std::make_unique<BasicLruPolicy>()));
        l2_.push_back(std::make_unique<Cache>(
            config.l2, std::make_unique<BasicLruPolicy>()));
    }
    llc_ = std::make_unique<Cache>(config.llc, std::move(llc_policy),
                                   cores);
}

AccessDepth
Hierarchy::access(std::uint8_t core, std::uint64_t pc,
                  std::uint64_t byte_addr, bool is_write)
{
    GLIDER_ASSERT(core < cores_);
    std::uint64_t block = traces::blockAddr(byte_addr);

    AccessDepth depth = AccessDepth::Dram;
    if (l1_[core]->access(core, pc, block, is_write)) {
        depth = AccessDepth::L1;
    } else if (l2_[core]->access(core, pc, block, is_write)) {
        depth = AccessDepth::L2;
    } else {
        ++llc_core_accesses_[core];
        if (llc_->access(core, pc, block, is_write))
            depth = AccessDepth::Llc;
        else
            ++llc_core_misses_[core];
    }
    return depth;
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
        l1_[c]->exportMetrics(registry, prefix + ".l1." + core);
        l2_[c]->exportMetrics(registry, prefix + ".l2." + core);
        registry.setCounter(prefix + ".llc." + core + ".accesses",
                            llc_core_accesses_[c]);
        registry.setCounter(prefix + ".llc." + core + ".misses",
                            llc_core_misses_[c]);
    }
    llc_->exportMetrics(registry, prefix + ".llc.shared");
    llc_->policy().exportMetrics(registry, prefix + ".llc.policy");
}

void
Hierarchy::clearStatsCounters()
{
    for (auto &c : l1_)
        c->clearStats();
    for (auto &c : l2_)
        c->clearStats();
    llc_->clearStats();
    llc_core_accesses_.assign(cores_, 0);
    llc_core_misses_.assign(cores_, 0);
}

} // namespace sim
} // namespace glider
