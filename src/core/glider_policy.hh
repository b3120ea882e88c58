/**
 * @file
 * The Glider cache replacement policy: the Hawkeye framework with the
 * ISVM-over-PCHR predictor of §4.4 in place of Hawkeye's per-PC
 * counters. Insertion priorities follow the paper exactly:
 * sum >= 60 -> RRPV 0, 0 <= sum < 60 -> RRPV 2, sum < 0 -> RRPV 7.
 */

#ifndef GLIDER_CORE_GLIDER_POLICY_HH
#define GLIDER_CORE_GLIDER_POLICY_HH

#include "glider_predictor.hh"
#include "policies/opt_guided.hh"

namespace glider {
namespace core {

/** Glider replacement (the paper's contribution). */
class GliderPolicy : public policies::OptGuidedPolicy
{
  public:
    explicit GliderPolicy(const GliderConfig &config = GliderConfig())
        : config_(config)
    {
    }

    std::string name() const override { return "Glider"; }

    void
    reset(const sim::CacheGeometry &geom) override
    {
        policies::OptGuidedPolicy::reset(geom);
        predictor_ = std::make_unique<GliderPredictor>(config_,
                                                       geom.cores);
    }

    /** Read access to the live predictor (for tests). */
    const GliderPredictor &predictor() const { return *predictor_; }

    void
    exportMetrics(obs::Registry &registry,
                  const std::string &prefix) const override
    {
        policies::OptGuidedPolicy::exportMetrics(registry, prefix);
        if (predictor_)
            predictor_->exportMetrics(registry, prefix + ".predictor");
    }

  protected:
    void
    observeAccess(const sim::ReplacementAccess &access) override
    {
        // Snapshot semantics: prediction and training feature for
        // this access both use the PCHR *before* it absorbs the
        // current PC — the control-flow context leading up to the
        // access — and the PCHR updates on every LLC access. The
        // copy-assign reuses snapshot_'s capacity (k is fixed), so
        // the warmed path stays allocation-free. The slot-count
        // feature snapshots alongside (a 16-byte copy), keeping the
        // per-access prediction hash-free.
        snapshot_ = predictor_->history(access.core);
        snapshot_counts_ = predictor_->historyCounts(access.core);
        predictor_->observe(access.pc, access.core);
    }

    Pred
    predictAccess(const sim::ReplacementAccess &access) override
    {
        switch (predictor_->predictCounts(access.pc, snapshot_counts_,
                                          access.core)) {
          case GliderPrediction::FriendlyHigh:
            return Pred::FriendlyHigh;
          case GliderPrediction::FriendlyLow:
            return Pred::FriendlyLow;
          default:
            return Pred::Averse;
        }
    }

    const opt::PcHistory &
    historySnapshot(const sim::ReplacementAccess &) override
    {
        return snapshot_;
    }

    void
    onTrainingEvent(const opt::TrainingEvent &event) override
    {
        predictor_->train(event.pc, event.core, event.history,
                          event.opt_hit);
    }

  private:
    GliderConfig config_;
    std::unique_ptr<GliderPredictor> predictor_;
    opt::PcHistory snapshot_;
    SlotCounts snapshot_counts_;
};

} // namespace core
} // namespace glider

#endif // GLIDER_CORE_GLIDER_POLICY_HH
