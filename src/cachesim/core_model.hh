/**
 * @file
 * OoO-lite core timing model.
 *
 * The paper's ChampSim core is a 4-wide, 8-stage, 128-entry-ROB
 * out-of-order processor. Cycle-exact pipeline modelling is neither
 * feasible from a memory trace nor necessary for replacement studies;
 * what the IPC comparison needs is that (a) miss penalties dominate,
 * (b) independent misses overlap within the ROB/MSHR limits, so
 * speedups track miss reductions sub-linearly. This model charges
 * issue bandwidth (width-wide), lets memory operations overlap in a
 * bounded outstanding-miss window (MSHRs), and stalls retirement when
 * an incomplete access falls more than a ROB's worth of instructions
 * behind — the three first-order effects.
 */

#ifndef GLIDER_CACHESIM_CORE_MODEL_HH
#define GLIDER_CACHESIM_CORE_MODEL_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "hierarchy.hh"

namespace glider {
namespace sim {

/** Core-model parameters (ChampSim-inspired defaults). */
struct CoreParams
{
    unsigned width = 4;            //!< issue width
    unsigned rob_entries = 128;    //!< reorder-buffer window
    unsigned mshrs = 16;           //!< max overlapping memory ops
    unsigned instr_per_access = 4; //!< non-memory work per memory op
};

/** Accumulates cycles and instructions for one simulated core. */
class CoreModel
{
  public:
    explicit CoreModel(const CoreParams &params = CoreParams())
        : params_(params), ring_(params.mshrs)
    {
        GLIDER_ASSERT(params.mshrs >= 1);
    }

    /**
     * Account one memory access that resolved at @p depth with
     * round-trip @p latency cycles (including the instr_per_access
     * instructions of surrounding non-memory work).
     */
    void
    step(AccessDepth depth, std::uint32_t latency) noexcept
    {
        instructions_ += params_.instr_per_access;
        cycles_ += static_cast<double>(params_.instr_per_access)
            / params_.width;

        if (depth == AccessDepth::L1)
            return; // fully pipelined

        // Retire completed operations.
        while (count_ > 0 && front().completion <= cycles_)
            popFront();
        // MSHR limit: a new memory op cannot issue until a slot frees.
        // The ring holds exactly mshrs entries, so at most one pop.
        if (count_ >= params_.mshrs) {
            stallUntil(front().completion);
            popFront();
        }
        // ROB limit: cannot run further ahead than the window allows
        // past the oldest incomplete memory op.
        while (count_ > 0
               && static_cast<std::int64_t>(instructions_)
                       - front().issued_instr
                   >= static_cast<std::int64_t>(params_.rob_entries)) {
            stallUntil(front().completion);
            popFront();
        }
        pushBack(
            {cycles_ + latency, static_cast<std::int64_t>(instructions_)});
    }

    /** Drain outstanding operations at end of simulation. */
    void
    finish() noexcept
    {
        if (count_ > 0) {
            stallUntil(back().completion);
            head_ = 0;
            count_ = 0;
        }
    }

    std::uint64_t instructions() const { return instructions_; }
    double cycles() const { return cycles_; }

    double
    ipc() const
    {
        return cycles_ > 0.0
            ? static_cast<double>(instructions_) / cycles_
            : 0.0;
    }

    /**
     * Zero the counters at the warmup boundary, keeping the
     * outstanding window: in-flight operations are rebased to the new
     * time origin (completion times shifted by the cleared cycle
     * count, issue instruction counts by the cleared instruction
     * count, going negative for ops issued before the boundary), so
     * their ROB/MSHR stalls still land in the measured phase instead
     * of being silently dropped.
     */
    void
    clearCounters()
    {
        for (std::size_t i = 0; i < count_; ++i) {
            Outstanding &op = ring_[wrap(head_ + i)];
            op.completion -= cycles_;
            if (op.completion < 0.0)
                op.completion = 0.0;
            op.issued_instr -= static_cast<std::int64_t>(instructions_);
        }
        instructions_ = 0;
        cycles_ = 0.0;
    }

    const CoreParams &params() const { return params_; }

  private:
    struct Outstanding
    {
        double completion;
        // Signed: clearCounters() rebases issue points against the
        // new origin, so ops issued before the warmup boundary sit at
        // negative instruction counts.
        std::int64_t issued_instr;
    };

    // Fixed ring buffer over the MSHR window. A std::deque here cost
    // a chunk allocation/free every ~few hundred accesses on the per-
    // access path; the window is hard-bounded at mshrs entries, so
    // capacity is allocated once in the constructor.

    /**
     * Ring index of @p i < 2 * ring_.size(): a compare instead of a
     * 64-bit divide, since the size is only known at run time.
     */
    std::size_t
    wrap(std::size_t i) const noexcept
    {
        return i >= ring_.size() ? i - ring_.size() : i;
    }

    const Outstanding &
    front() const noexcept
    {
        return ring_[head_];
    }

    const Outstanding &
    back() const noexcept
    {
        return ring_[wrap(head_ + count_ - 1)];
    }

    void
    popFront() noexcept
    {
        head_ = wrap(head_ + 1);
        --count_;
    }

    void
    pushBack(Outstanding op) noexcept
    {
        ring_[wrap(head_ + count_)] = op;
        ++count_;
    }

    void
    stallUntil(double when) noexcept
    {
        if (when > cycles_)
            cycles_ = when;
    }

    CoreParams params_;
    std::uint64_t instructions_ = 0;
    double cycles_ = 0.0;
    std::vector<Outstanding> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace sim
} // namespace glider

#endif // GLIDER_CACHESIM_CORE_MODEL_HH
