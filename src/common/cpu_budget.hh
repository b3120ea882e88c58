/**
 * @file
 * A process-wide tally of the CPUs the process's compute threads
 * hold, so that an optional extra thread starts only where it finds
 * a CPU of its own.
 *
 * ThreadPool adds min(workers, queued + running tasks) while it has
 * work; a SpareCpu adds one for as long as it lives. The caller of
 * tryTakeSpare() counts too: a pool worker is already in its pool's
 * share, any other thread adds itself. Threads of other processes are
 * not seen, and nothing is enforced: a thread that holds no SpareCpu
 * still runs, it just makes later extra threads less likely.
 */

#ifndef GLIDER_COMMON_CPU_BUDGET_HH
#define GLIDER_COMMON_CPU_BUDGET_HH

#include <thread>

namespace glider {
namespace cpu_budget {

/** CPUs the process may run on (its affinity mask), at least 1. */
unsigned usableCpus();

/** CPUs the tally holds now. */
unsigned held();

/** Add @p delta to the tally (a pool's share changed). */
void adjust(int delta);

/** Mark the calling thread as a ThreadPool worker for its lifetime. */
void markPoolWorker();

/** True on a thread that markPoolWorker() marked. */
bool onPoolWorker();

/**
 * Ask the scheduler to keep @p thread off the CPU the caller runs on
 * now. A new thread starts on its creator's CPU, and some hosts never
 * balance it away; a helper meant to run beside its creator then only
 * takes turns with it. A no-op where thread affinity is unsupported,
 * or when the caller may run on one CPU only.
 */
void keepOffCallerCpu(std::jthread &thread);

/**
 * One CPU taken from the tally for an extra thread, if the tally,
 * the caller and the extra thread fit in usableCpus(); given back on
 * destruction.
 */
class SpareCpu
{
  public:
    SpareCpu();
    ~SpareCpu();
    SpareCpu(const SpareCpu &) = delete;
    SpareCpu &operator=(const SpareCpu &) = delete;

    /** True when a CPU was free and is now held. */
    explicit operator bool() const { return taken_; }

  private:
    bool taken_;
};

} // namespace cpu_budget
} // namespace glider

#endif // GLIDER_COMMON_CPU_BUDGET_HH
