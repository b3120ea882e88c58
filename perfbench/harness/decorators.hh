/**
 * @file
 * Forwarding decorators that time the simulator's calls into its two
 * plug-in layers from outside: the access source (trace delivery and
 * gtrace decode) and the LLC replacement policy (the policy hooks).
 * Both forward every call unchanged, so the simulation they wrap
 * produces exactly the counts it would produce unwrapped; they only
 * add a clock read on each side of the timed calls.
 */

#ifndef PERFBENCH_DECORATORS_HH
#define PERFBENCH_DECORATORS_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "cachesim/access_source.hh"
#include "cachesim/replacement.hh"
#include "obs/metrics.hh"
#include "harness/spans.hh"

namespace perfbench {

/** Calls made through an AccessSource and what they delivered. */
struct SourceTally
{
    std::uint64_t ns = 0;       //!< time inside nextChunk/rewind
    std::uint64_t calls = 0;    //!< nextChunk + rewind calls
    std::uint64_t chunks = 0;   //!< non-empty chunks delivered
    std::uint64_t records = 0;  //!< records delivered
};

/** Times nextChunk and rewind of the wrapped source. */
class TimedSource final : public glider::sim::AccessSource
{
  public:
    TimedSource(glider::sim::AccessSource &inner, SourceTally &tally)
        : inner_(inner), tally_(tally)
    {
    }

    const std::string &name() const override { return inner_.name(); }
    std::uint64_t size() const override { return inner_.size(); }

    std::span<const glider::traces::AccessRecord>
    nextChunk() override
    {
        std::uint64_t t0 = nowNs();
        auto out = inner_.nextChunk();
        tally_.ns += nowNs() - t0;
        ++tally_.calls;
        if (!out.empty())
            ++tally_.chunks;
        tally_.records += out.size();
        return out;
    }

    void
    rewind() override
    {
        std::uint64_t t0 = nowNs();
        inner_.rewind();
        tally_.ns += nowNs() - t0;
        ++tally_.calls;
    }

  private:
    glider::sim::AccessSource &inner_;
    SourceTally &tally_;
};

/** Calls made through a ReplacementPolicy's hooks. */
struct HookTally
{
    std::uint64_t ns = 0;       //!< time inside the four hooks
    std::uint64_t hits = 0;     //!< onHit calls
    std::uint64_t misses = 0;   //!< victimWay calls
    std::uint64_t bypasses = 0; //!< victimWay returned the sentinel
    std::uint64_t evicts = 0;   //!< onEvict calls
    std::uint64_t inserts = 0;  //!< onInsert calls

    std::uint64_t llcAccesses() const { return hits + misses; }
    std::uint64_t calls() const { return hits + misses + evicts + inserts; }
};

/**
 * Times victimWay, onHit, onEvict and onInsert of the wrapped policy
 * and forwards name, reset, exportMetrics and adviceProvider.
 *
 * The simulation drivers own and destroy the policy before they
 * return, so when @p export_to is set the decorator exports the
 * wrapped policy's telemetry there (under "policy") as it is
 * destroyed.
 */
class TimedPolicy final : public glider::sim::ReplacementPolicy
{
  public:
    TimedPolicy(std::unique_ptr<glider::sim::ReplacementPolicy> inner,
                HookTally &tally,
                glider::obs::Registry *export_to = nullptr)
        : inner_(std::move(inner)), tally_(tally), export_to_(export_to)
    {
    }

    ~TimedPolicy() override
    {
        if (export_to_ == nullptr)
            return;
        try {
            inner_->exportMetrics(*export_to_, "policy");
        } catch (...) {
            // Telemetry only: a failed export leaves the registry
            // without the policy's entries, which the report shows.
        }
    }

    TimedPolicy(const TimedPolicy &) = delete;
    TimedPolicy &operator=(const TimedPolicy &) = delete;

    std::string name() const override { return inner_->name(); }

    void
    reset(const glider::sim::CacheGeometry &geom) override
    {
        inner_->reset(geom);
    }

    std::uint32_t
    victimWay(const glider::sim::ReplacementAccess &access,
              glider::sim::SetView lines) override
    {
        std::uint64_t t0 = nowNs();
        std::uint32_t way = inner_->victimWay(access, lines);
        tally_.ns += nowNs() - t0;
        ++tally_.misses;
        if (way >= lines.size())
            ++tally_.bypasses;
        return way;
    }

    void
    onHit(const glider::sim::ReplacementAccess &access,
          std::uint32_t way) override
    {
        std::uint64_t t0 = nowNs();
        inner_->onHit(access, way);
        tally_.ns += nowNs() - t0;
        ++tally_.hits;
    }

    void
    onEvict(const glider::sim::ReplacementAccess &access,
            std::uint32_t way,
            const glider::sim::LineView &victim) override
    {
        std::uint64_t t0 = nowNs();
        inner_->onEvict(access, way, victim);
        tally_.ns += nowNs() - t0;
        ++tally_.evicts;
    }

    void
    onInsert(const glider::sim::ReplacementAccess &access,
             std::uint32_t way) override
    {
        std::uint64_t t0 = nowNs();
        inner_->onInsert(access, way);
        tally_.ns += nowNs() - t0;
        ++tally_.inserts;
    }

    void
    exportMetrics(glider::obs::Registry &registry,
                  const std::string &prefix) const override
    {
        inner_->exportMetrics(registry, prefix);
    }

    const glider::sim::BatchAdviceProvider *
    adviceProvider() const override
    {
        return inner_->adviceProvider();
    }

  private:
    std::unique_ptr<glider::sim::ReplacementPolicy> inner_;
    HookTally &tally_;
    glider::obs::Registry *export_to_;
};

} // namespace perfbench

#endif // PERFBENCH_DECORATORS_HH
