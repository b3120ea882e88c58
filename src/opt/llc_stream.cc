#include "llc_stream.hh"

#include <algorithm>

#include "cachesim/hierarchy.hh"

namespace glider {
namespace opt {

traces::Trace
extractLlcStream(const traces::Trace &cpu_trace,
                 const sim::HierarchyConfig &config)
{
    // The private half of sim::Hierarchy's walk, one L1/L2 pair per
    // core, so this is exactly the stream that reaches the live
    // hierarchy's LLC when each record runs on core rec.core.
    unsigned cores = 1;
    for (const auto &rec : cpu_trace)
        cores = std::max(cores, rec.core + 1u);
    sim::PrivateWalk walk(config, cores);

    traces::Trace out(cpu_trace.name() + ".llc");
    for (const auto &rec : cpu_trace) {
        if (walk.access(rec.core, traces::blockAddr(rec.address))
            == sim::AccessDepth::Llc)
            out.push(rec);
    }
    return out;
}

} // namespace opt
} // namespace glider
