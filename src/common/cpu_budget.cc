#include "common/cpu_budget.hh"

#include <atomic>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace glider {
namespace cpu_budget {

namespace {

// glider-mo: counter-relaxed — a count of held CPUs; no data is
// published under it, and a stale read only starts or skips one
// optional thread.
std::atomic<int> g_held{0};

thread_local bool t_pool_worker = false;

} // namespace

unsigned
usableCpus()
{
    static const unsigned cpus = [] {
#if defined(__linux__)
        cpu_set_t set;
        if (sched_getaffinity(0, sizeof(set), &set) == 0) {
            int n = CPU_COUNT(&set);
            if (n > 0)
                return static_cast<unsigned>(n);
        }
#endif
        unsigned hw = std::thread::hardware_concurrency();
        return hw ? hw : 1u;
    }();
    return cpus;
}

unsigned
held()
{
    int n = g_held.load(std::memory_order_relaxed);
    return n > 0 ? static_cast<unsigned>(n) : 0u;
}

void
adjust(int delta)
{
    g_held.fetch_add(delta, std::memory_order_relaxed);
}

void
markPoolWorker()
{
    t_pool_worker = true;
}

bool
onPoolWorker()
{
    return t_pool_worker;
}

void
keepOffCallerCpu(std::jthread &thread)
{
#if defined(__linux__)
    cpu_set_t set;
    if (pthread_getaffinity_np(pthread_self(), sizeof(set), &set) != 0)
        return;
    int cpu = sched_getcpu();
    if (cpu < 0 || !CPU_ISSET(cpu, &set) || CPU_COUNT(&set) < 2)
        return;
    CPU_CLR(cpu, &set);
    pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set);
#else
    (void)thread;
#endif
}

SpareCpu::SpareCpu() : taken_(false)
{
    // The caller's own CPU, unless its pool already counts it.
    const int need = onPoolWorker() ? 1 : 2;
    const int cpus = static_cast<int>(usableCpus());
    int now = g_held.load(std::memory_order_relaxed);
    while (now + need <= cpus) {
        if (g_held.compare_exchange_weak(now, now + 1,
                                         std::memory_order_relaxed)) {
            taken_ = true;
            break;
        }
    }
}

SpareCpu::~SpareCpu()
{
    if (taken_)
        adjust(-1);
}

} // namespace cpu_budget
} // namespace glider
