/**
 * @file
 * Per-shard tenant state and the serial request processor.
 *
 * A TenantServer is thread-free: it owns the predictor state of every
 * tenant hashed to one shard and processes runs of requests for one
 * tenant at a time, in arrival order. The engine gives each shard its
 * own TenantServer and drives it from exactly one worker thread, so a
 * tenant's train/predict stream is single-threaded and deterministic
 * by construction — the same object also runs standalone (no queue,
 * no threads) as the bench's reference floor and the tests' oracle.
 *
 * Serial semantics, mirroring GliderPolicy's snapshot rule: an Advise
 * for pc predicts against the PCHR *before* pc is observed, then
 * observes pc; a Train for (pc, label) trains against the PCHR before
 * pc, then observes pc. Advise predictions are gathered into
 * predictMany batches (the SIMD path); a Train flushes the pending
 * batch first so every prediction sees exactly the weights a fully
 * serial execution would have seen.
 */

#ifndef GLIDER_SERVE_TENANT_SERVER_HH
#define GLIDER_SERVE_TENANT_SERVER_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <memory>
#include <span>
#include <string>

#include "common/cancellation.hh"
#include "common/hash.hh"
#include "core/glider_predictor.hh"
#include "resilience/fault_inject.hh"
#include "resilience/recovery.hh"
#include "request.hh"

namespace glider {
namespace serve {

/** Map a predictor decision to the wire-level advice enum. */
inline AdviceLevel
toAdviceLevel(core::GliderPrediction p)
{
    switch (p) {
      case core::GliderPrediction::FriendlyHigh:
        return AdviceLevel::FriendlyHigh;
      case core::GliderPrediction::FriendlyLow:
        return AdviceLevel::FriendlyLow;
      case core::GliderPrediction::Averse:
        break;
    }
    return AdviceLevel::Averse;
}

/** One tenant's predictor state plus serving bookkeeping. */
struct TenantState
{
    explicit TenantState(const core::GliderConfig &config)
        : predictor(config, 1)
    {
    }

    core::GliderPredictor predictor; //!< single-core partition
    bool quarantined = false; //!< disabled after exhausted retries
    std::uint64_t served = 0;  //!< Advise operations completed
    std::uint64_t trained = 0; //!< Train operations completed
    int fault_attempts = 0;    //!< cumulative fault-plan attempts
};

/** Serial multi-tenant request processor (one per shard). */
class TenantServer
{
  public:
    /** Advise operations gathered per predictMany flush. */
    static constexpr std::size_t kBatch =
        core::GliderPredictor::kBatchChunk;

    explicit TenantServer(const core::GliderConfig &config)
        : config_(config)
    {
        for (auto &req : preq_)
            req = core::PredictRequest{};
    }

    TenantServer(const TenantServer &) = delete;
    TenantServer &operator=(const TenantServer &) = delete;

    /**
     * Get-or-create the state of @p id. A direct-mapped cache in
     * front of the ordered map keeps the per-run lookup O(1) on the
     * hot path (the map stays the source of truth and the ordered
     * view for snapshots).
     */
    TenantState &
    tenant(std::uint64_t id)
    {
        std::size_t slot =
            static_cast<std::size_t>(mix64(id)) & (kTenantCache - 1);
        if (cache_ptr_[slot] != nullptr && cache_id_[slot] == id)
            return *cache_ptr_[slot];
        auto it = tenants_.find(id);
        if (it == tenants_.end())
            it = tenants_
                     .emplace(id,
                              std::make_unique<TenantState>(config_))
                     .first;
        cache_id_[slot] = id;
        cache_ptr_[slot] = it->second.get();
        return *it->second;
    }

    /** Replace @p id with fresh state (checkpoint restore). */
    TenantState &
    resetTenant(std::uint64_t id)
    {
        std::size_t slot =
            static_cast<std::size_t>(mix64(id)) & (kTenantCache - 1);
        if (cache_ptr_[slot] != nullptr && cache_id_[slot] == id)
            cache_ptr_[slot] = nullptr; // the pointer is replaced
        auto &state = tenants_[id];
        state = std::make_unique<TenantState>(config_);
        return *state;
    }

    /** Lookup without creating; nullptr when the tenant is unknown. */
    const TenantState *
    find(std::uint64_t id) const
    {
        auto it = tenants_.find(id);
        return it == tenants_.end() ? nullptr : it->second.get();
    }

    /**
     * Process one in-order run of requests, all for tenant @p state.
     * Publishes every response (release-increments each request's
     * done counter). Never throws; fault injection, when wanted,
     * happens in serveRun *before* this touches any state.
     */
    void
    processRun(TenantState &state,
               std::span<const AdviceRequest *const> run)
    {
        for (const AdviceRequest *req : run) {
            if (req->kind == RequestKind::Advise) {
                pending_[npend_] = req;
                counts_[npend_] =
                    state.predictor.historyCounts(0);
                preq_[npend_].pc = req->pc;
                preq_[npend_].core = 0;
                preq_[npend_].counts = &counts_[npend_];
                ++npend_;
                state.predictor.observe(req->pc, 0);
                if (npend_ == kBatch)
                    flush(state);
            } else {
                // Train consumes the PCHR feature before pc enters
                // it; flush first so the pending predictions were
                // computed against pre-train weights, exactly as a
                // serial execution interleaves them.
                flush(state);
                state.predictor.train(req->pc, 0,
                                      state.predictor.history(0),
                                      req->opt_hit);
                state.predictor.observe(req->pc, 0);
                ++state.trained;
                publish(*req, 0,
                        core::GliderPrediction::FriendlyLow,
                        ResponseStatus::Ok);
            }
        }
        flush(state);
        drainDone();
    }

    /**
     * processRun under fault containment: each attempt fires
     * @p faults for key "tenant/<id>" *before* any state mutation
     * (so retries replay cleanly), with a fresh per-attempt
     * CancelToken chained to @p parent and armed with the recovery
     * deadline (this is what unwinds hang faults). A tenant that
     * exhausts the attempt budget is quarantined: this run and all
     * later ones answer with ResponseStatus::Quarantined.
     */
    void
    serveRun(std::uint64_t id, TenantState &state,
             std::span<const AdviceRequest *const> run,
             const resilience::FaultPlan *faults,
             const resilience::RecoveryOptions &recovery,
             const CancelToken *parent)
    {
        if (state.quarantined) {
            refuse(run);
            return;
        }
        if (faults == nullptr || faults->empty()) {
            processRun(state, run);
            return;
        }
        std::string key = "tenant/" + std::to_string(id);
        int max_attempts =
            recovery.max_attempts < 1 ? 1 : recovery.max_attempts;
        for (int attempt = 0; attempt < max_attempts; ++attempt) {
            CancelToken token(parent);
            if (recovery.deadline_ms > 0)
                token.setDeadlineMs(recovery.deadline_ms);
            try {
                faults->apply(key, ++state.fault_attempts, token);
                processRun(state, run);
                return;
            } catch (const std::exception &) {
                // FaultInjected or CancelledError (hang + deadline):
                // nothing mutated yet, safe to retry.
            }
            if (parent != nullptr && parent->cancelled())
                break;
        }
        state.quarantined = true;
        ++quarantined_;
        refuse(run);
    }

    /** Tenants quarantined by exhausted fault retries. */
    std::uint64_t quarantinedTenants() const { return quarantined_; }

    /** All tenant state, keyed by id (ordered — snapshot iteration). */
    const std::map<std::uint64_t, std::unique_ptr<TenantState>> &
    tenants() const
    {
        return tenants_;
    }

    const core::GliderConfig &config() const { return config_; }

    /** Steady-clock nanoseconds (response timestamps). */
    static std::uint64_t
    nowNs()
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    /**
     * Per-thread CPU nanoseconds (busy-time accounting). Unlike the
     * wall clock this excludes time the thread spent preempted, so
     * serving-path throughput computed from it is stable even when
     * the host has fewer cores than threads. Falls back to the wall
     * clock where no thread CPU clock exists.
     */
    static std::uint64_t
    cpuNs()
    {
#if defined(CLOCK_THREAD_CPUTIME_ID)
        timespec ts;
        if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
            return static_cast<std::uint64_t>(ts.tv_sec)
                * 1'000'000'000ull
                + static_cast<std::uint64_t>(ts.tv_nsec);
#endif
        return nowNs();
    }

  private:
    void
    publish(const AdviceRequest &req, int score,
            core::GliderPrediction level, ResponseStatus status)
    {
        if (req.response != nullptr) {
            req.response->score = score;
            req.response->level = toAdviceLevel(level);
            req.response->status = status;
            req.response->served_ns = nowNs();
        }
        noteDone(req.done);
    }

    /**
     * Defer a done-counter increment. Counters are released in
     * per-counter groups at the end of the run (drainDone), so a
     * waiting client costs one contended fetch_add per run instead
     * of one per request. Response slots are written before their
     * counter's release lands, preserving the publish contract.
     */
    void
    noteDone(std::atomic<std::uint64_t> *done)
    {
        if (done == nullptr)
            return;
        for (std::size_t j = 0; j < ndone_; ++j) {
            if (done_ptr_[j] == done) {
                ++done_cnt_[j];
                return;
            }
        }
        if (ndone_ == kDoneSlots)
            drainDone();
        done_ptr_[ndone_] = done;
        done_cnt_[ndone_] = 1;
        ++ndone_;
    }

    /** Release every deferred done-counter increment. */
    void
    drainDone()
    {
        for (std::size_t j = 0; j < ndone_; ++j)
            done_ptr_[j]->fetch_add(done_cnt_[j],
                                    std::memory_order_release);
        ndone_ = 0;
    }

    /** Run the pending Advise batch through the SIMD path. */
    void
    flush(TenantState &state)
    {
        if (npend_ == 0)
            return;
        state.predictor.predictMany(
            std::span<const core::PredictRequest>(preq_.data(),
                                                  npend_),
            std::span<core::Prediction>(pred_.data(), npend_));
        std::uint64_t stamp = nowNs();
        for (std::size_t i = 0; i < npend_; ++i) {
            const AdviceRequest &req = *pending_[i];
            if (req.response != nullptr) {
                req.response->score = pred_[i].sum;
                req.response->level = toAdviceLevel(pred_[i].level);
                req.response->status = ResponseStatus::Ok;
                req.response->served_ns = stamp;
            }
            noteDone(req.done);
        }
        state.served += npend_;
        npend_ = 0;
    }

    /** Answer a run without touching predictor state. */
    void
    refuse(std::span<const AdviceRequest *const> run)
    {
        for (const AdviceRequest *req : run)
            publish(*req, 0, core::GliderPrediction::FriendlyLow,
                    ResponseStatus::Quarantined);
        drainDone();
    }

    core::GliderConfig config_;
    std::map<std::uint64_t, std::unique_ptr<TenantState>> tenants_;
    std::uint64_t quarantined_ = 0;

    // Direct-mapped tenant-pointer cache (hot-path lookup).
    static constexpr std::size_t kTenantCache = 64;
    std::array<std::uint64_t, kTenantCache> cache_id_{};
    std::array<TenantState *, kTenantCache> cache_ptr_{};

    // predictMany gather scratch (fixed, allocation-free).
    std::array<const AdviceRequest *, kBatch> pending_{};
    std::array<core::SlotCounts, kBatch> counts_{};
    std::array<core::PredictRequest, kBatch> preq_{};
    std::array<core::Prediction, kBatch> pred_{};
    std::size_t npend_ = 0;

    // Deferred done-counter groups (one slot per distinct waiting
    // client seen in the current run; overflow drains early).
    static constexpr std::size_t kDoneSlots = 16;
    // glider-mo: publish — drainDone's release increments pair
    // with each client's acquire wait on its counter.
    std::array<std::atomic<std::uint64_t> *, kDoneSlots> done_ptr_{};
    std::array<std::uint64_t, kDoneSlots> done_cnt_{};
    std::size_t ndone_ = 0;
};

} // namespace serve
} // namespace glider

#endif // GLIDER_SERVE_TENANT_SERVER_HH
