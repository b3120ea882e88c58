#include "llc_stream.hh"

#include <algorithm>
#include <vector>

#include "cachesim/walk_memo.hh"

namespace glider {
namespace opt {

traces::Trace
extractLlcStream(const traces::Trace &cpu_trace,
                 const sim::HierarchyConfig &config)
{
    // The private half of sim::Hierarchy's walk, one L1/L2 pair per
    // core, so this is exactly the stream that reaches the live
    // hierarchy's LLC when each record runs on core rec.core. A
    // single-core trace's walk is the one its replays memoise.
    std::vector<std::uint8_t> per_core;
    bool single_core =
        std::all_of(cpu_trace.begin(), cpu_trace.end(),
                    [](const traces::AccessRecord &rec) {
                        return rec.core == 0;
                    });
    if (!single_core)
        sim::walkPrivateLevels(cpu_trace, config, true, per_core);
    sim::DepthCodes depths = single_core
        ? sim::walkMemo(cpu_trace, config)
        : sim::DepthCodes(per_core);

    traces::Trace out(cpu_trace.name() + ".llc");
    for (std::size_t i = 0; i < cpu_trace.size(); ++i) {
        if (depths[i] == sim::AccessDepth::Llc)
            out.push(cpu_trace[i]);
    }
    return out;
}

} // namespace opt
} // namespace glider
