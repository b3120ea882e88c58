/**
 * @file
 * Seeded inputs and small process helpers shared by the benchmark
 * program and its tests.
 */

#include <sys/resource.h>

#include <algorithm>

#include "common/hash.hh"
#include "common/logging.hh"
#include "harness/common.hh"
#include "workloads/graph_kernels.hh"
#include "workloads/registry.hh"
#include "workloads/scheduler_kernel.hh"
#include "workloads/spec_kernels.hh"

namespace perfbench {

using namespace glider;

std::unique_ptr<workloads::Kernel>
makeKernel(const std::string &name, std::uint64_t accesses,
           std::uint64_t seed)
{
    // The registry's table index is the kernel's PC namespace; keep
    // it so the benchmark's traces carry the same PCs as the paper
    // figures' traces of the same name.
    const auto all = workloads::allWorkloads();
    auto it = std::find(all.begin(), all.end(), name);
    GLIDER_ASSERT(it != all.end());
    auto id = static_cast<std::uint32_t>(it - all.begin());
    std::uint64_t kseed = hashCombine(seed, id);

    auto fill = [&](auto &p) {
        p.name = name;
        p.kernel_id = id;
        p.seed = kseed;
        p.target_accesses = accesses;
    };
    if (name == "mcf") {
        workloads::NetworkSimplexKernel::Params p;
        fill(p);
        p.nodes = 1'200'000;
        return std::make_unique<workloads::NetworkSimplexKernel>(p);
    }
    if (name == "sphinx3") {
        workloads::ScoreTableKernel::Params p;
        fill(p);
        p.tables = 4096;
        return std::make_unique<workloads::ScoreTableKernel>(p);
    }
    if (name == "astar") {
        workloads::GridSearchKernel::Params p;
        fill(p);
        p.width = 1024;
        p.height = 1024;
        return std::make_unique<workloads::GridSearchKernel>(p);
    }
    if (name == "calculix") {
        workloads::SparseSolverKernel::Params p;
        fill(p);
        p.rows = 36'000;
        p.vec_elems = 36'000;
        return std::make_unique<workloads::SparseSolverKernel>(p);
    }
    if (name == "omnetpp") {
        workloads::SchedulerKernel::Params p;
        fill(p);
        p.big_pool_msgs = 262'144;
        return std::make_unique<workloads::SchedulerKernel>(p);
    }
    if (name == "bfs" || name == "tc") {
        workloads::GraphKernel::Params p;
        fill(p);
        p.algo = name == "bfs" ? workloads::GraphAlgo::Bfs
                               : workloads::GraphAlgo::TriangleCount;
        p.vertices = name == "bfs" ? 400'000 : 120'000;
        return std::make_unique<workloads::GraphKernel>(p);
    }
    GLIDER_FATAL("perfbench has no kernel for " + name);
}

namespace {

/**
 * Keeps the first @p cap records a kernel emits and counts the rest,
 * so a kernel that overshoots its budget at a coarse iteration
 * boundary (a whole BFS level, say) still yields exactly @p cap
 * records without ever holding the overshoot in memory.
 */
class CappedSink final : public traces::TraceSink
{
  public:
    CappedSink(traces::Trace &trace, std::uint64_t cap)
        : trace_(trace), cap_(cap)
    {
    }

    void
    push(const traces::AccessRecord &rec) override
    {
        if (trace_.size() < cap_)
            trace_.push(rec);
        else
            ++dropped_;
    }
    using TraceSink::push;

    std::uint64_t size() const override { return trace_.size() + dropped_; }

  private:
    traces::Trace &trace_;
    std::uint64_t cap_;
    std::uint64_t dropped_ = 0;
};

} // namespace

traces::Trace
generateTrace(const std::string &name, std::uint64_t accesses,
              std::uint64_t seed)
{
    traces::Trace trace(name);
    CappedSink sink(trace, accesses);
    makeKernel(name, accesses, seed)->run(sink);
    return trace;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
metricName(const std::string &policy)
{
    std::string out;
    for (char c : policy)
        out += c == '+' ? std::string("p") : std::string(1, c);
    return out;
}

} // namespace perfbench
