#ifndef GLIDER_COMMON_ALLOC_GUARD_HH
#define GLIDER_COMMON_ALLOC_GUARD_HH

/**
 * @file
 * Scoped heap-allocation counting for zero-allocation assertions.
 *
 * Built with -DGLIDER_ALLOCGUARD=ON the global operator new/delete
 * pair is replaced with counting hooks (alloc_guard.cc), and a
 * ScopedAllocCheck reads the per-thread counter around a region:
 *
 *     glider::ScopedAllocCheck guard;
 *     for (...) cache.access(...);        // the claimed-hot region
 *     GLIDER_ASSERT(guard.allocations() == 0, "hot path allocated");
 *
 * In default builds every call collapses to a constant and the guard
 * compiles away; tests that depend on real counts should skip when
 * allocGuardEnabled() is false. Counters are thread_local, so a
 * check only sees allocations made by its own thread — so a test
 * drives the simulator's hot loops (including both single-core
 * replay stages) on the checking thread, immune to noise from
 * worker-pool threads.
 */

#include <cstdint>

namespace glider {

/** Allocation totals for the calling thread since thread start. */
struct AllocCounts
{
    std::uint64_t allocations = 0; //!< operator new calls
    std::uint64_t frees = 0;       //!< operator delete calls
    std::uint64_t bytes = 0;       //!< total bytes requested
};

/** True when the counting operator new/delete is compiled in. */
bool allocGuardEnabled() noexcept;

/** Current totals for this thread (all-zero when disabled). */
AllocCounts allocCounts() noexcept;

/**
 * Snapshot of the thread's allocation counters at construction;
 * allocations()/bytes() report growth since then. Purely an
 * observer — asserting on the result is the caller's job, which
 * keeps the failure message and tolerance at the call site.
 */
class ScopedAllocCheck
{
  public:
    ScopedAllocCheck() noexcept : start_(allocCounts())
    {
    }

    /** operator new calls on this thread since construction. */
    std::uint64_t
    allocations() const noexcept
    {
        return allocCounts().allocations - start_.allocations;
    }

    /** Bytes requested on this thread since construction. */
    std::uint64_t
    bytes() const noexcept
    {
        return allocCounts().bytes - start_.bytes;
    }

  private:
    AllocCounts start_;
};

} // namespace glider

#endif // GLIDER_COMMON_ALLOC_GUARD_HH
