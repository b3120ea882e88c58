#include "llc_stream.hh"

#include "cachesim/private_lru.hh"

namespace glider {
namespace opt {

traces::Trace
extractLlcStream(const traces::Trace &cpu_trace,
                 const sim::HierarchyConfig &config)
{
    // The same private levels sim::Hierarchy walks, so for a
    // single-core trace this stream is exactly what reaches the live
    // hierarchy's LLC.
    sim::PrivateLru l1(config.l1);
    sim::PrivateLru l2(config.l2);

    traces::Trace out(cpu_trace.name() + ".llc");
    for (const auto &rec : cpu_trace) {
        std::uint64_t block = traces::blockAddr(rec.address);
        if (l1.access(block) || l2.access(block))
            continue;
        out.push(rec);
    }
    return out;
}

} // namespace opt
} // namespace glider
