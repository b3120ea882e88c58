#include "replay_stages.hh"

#include <algorithm>
#include <exception>
#include <thread>

#include "common/cpu_budget.hh"

namespace glider {
namespace sim {

namespace {

/**
 * Spin iterations before a blocking wait, under a microsecond (a
 * pause takes 10-20 ns on current x86). Waits are for whole chunks,
 * so a longer spin rarely succeeds, and where both stages share one
 * CPU it only delays the stage being waited for.
 */
constexpr int kSpins = 32;

inline void
cpuRelax() noexcept
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/** Stops the ring's producer when the consumer leaves its loop. */
struct StopOnExit
{
    ChunkRing &ring;
    ~StopOnExit() { ring.stop(); }
};

} // namespace

WalkStage::WalkStage(AccessSource &source, const HierarchyConfig &config,
                     std::uint64_t warmup_end)
    : source_(source), walk_(config, 1), warmup_end_(warmup_end)
{
}

void
WalkStage::fill(WalkChunk &out)
{
    std::uint32_t n = 0;
    std::uint32_t requests = 0;
    while (n < WalkChunk::kCapacity && !error_) {
        if (pos_ == records_.size()) {
            try {
                records_ = source_.nextChunk();
            } catch (...) {
                records_ = {};
                error_ = std::current_exception();
            }
            pos_ = 0;
            if (records_.empty())
                break;
        }
        std::size_t take = std::min<std::size_t>(
            WalkChunk::kCapacity - n, records_.size() - pos_);
        for (const auto &rec : records_.subspan(pos_, take)) {
            std::uint64_t block = traces::blockAddr(rec.address);
            AccessDepth depth = walk_.access(0, block);
            out.depth[n++] = depth;
            if (depth == AccessDepth::Llc)
                out.llc[requests++] = {rec.pc, block, rec.is_write};
            if (++index_ == warmup_end_)
                walk_.clearStats();
        }
        pos_ += take;
    }
    out.count = n;
}

LlcStage::LlcStage(const HierarchyConfig &config, const CoreParams &core,
                   std::unique_ptr<ReplacementPolicy> llc_policy,
                   std::uint64_t warmup_end)
    : latency_(depthLatencies(config)),
      llc_(config.llc, std::move(llc_policy), 1), core_(core),
      warmup_end_(warmup_end)
{
}

template <typename Request>
inline void
LlcStage::step(AccessDepth depth, Request &&request)
{
    if (depth == AccessDepth::Llc) {
        // glider-lint: allow(hotpath-transitive) request() is one of
        // the two inline lambdas below: it reads one request.
        const LlcRequest req = request();
        depth = llc_.access(0, req.pc, req.block, req.is_write);
    }
    core_.step(depth, latency_[static_cast<std::size_t>(depth)]);
    if (++index_ == warmup_end_) {
        llc_.clearStats();
        core_.clearCounters();
    }
}

void
LlcStage::run(const WalkChunk &chunk)
{
    const LlcRequest *req = chunk.llc.data();
    for (std::uint32_t k = 0; k < chunk.count; ++k)
        step(chunk.depth[k], [&] { return *req++; });
}

void
LlcStage::run(std::span<const traces::AccessRecord> records,
              DepthCodes depths, const CancelToken *cancel)
{
    for (std::size_t first = 0; first < records.size();
         first += WalkChunk::kCapacity) {
        if (cancel)
            cancel->throwIfCancelled();
        std::size_t end =
            std::min<std::size_t>(records.size(),
                                  first + WalkChunk::kCapacity);
        for (std::size_t i = first; i < end; ++i) {
            step(depths[i], [&] {
                const traces::AccessRecord &rec = records[i];
                return LlcRequest{rec.pc, traces::blockAddr(rec.address),
                                  rec.is_write};
            });
        }
    }
}

std::uint64_t
ChunkRing::awaitChange(const std::atomic<std::uint64_t> *word,
                       std::uint64_t seen)
{
    for (int spin = 0; spin < kSpins; ++spin) {
        std::uint64_t now = word->load(std::memory_order_acquire);
        if (now != seen)
            return now;
        cpuRelax();
    }
    // glider-lint: allow(hotpath-transitive) blocks only while the
    // other stage is a whole chunk behind: at most once per chunk.
    word->wait(seen, std::memory_order_acquire);
    return word->load(std::memory_order_acquire);
}

WalkChunk *
ChunkRing::claim()
{
    std::uint64_t tail = tail_.load(std::memory_order_acquire);
    for (;;) {
        if (tail & 1)
            return nullptr;
        if (produced_ - (tail >> 1) < kSlots)
            return &slots_[produced_ % kSlots];
        tail = awaitChange(&tail_, tail);
    }
}

void
ChunkRing::publish()
{
    ++produced_;
    head_.fetch_add(2, std::memory_order_release);
    if (produced_ % kWakeEvery == 0)
        head_.notify_one();
}

void
ChunkRing::close()
{
    head_.fetch_or(1, std::memory_order_release);
    head_.notify_one();
}

const WalkChunk *
ChunkRing::acquire()
{
    std::uint64_t head = head_.load(std::memory_order_acquire);
    for (;;) {
        if ((head >> 1) != consumed_)
            return &slots_[consumed_ % kSlots];
        if (head & 1)
            return nullptr;
        head = awaitChange(&head_, head);
    }
}

void
ChunkRing::release()
{
    ++consumed_;
    tail_.fetch_add(2, std::memory_order_release);
    if (consumed_ % kWakeEvery == 0)
        tail_.notify_one();
}

void
ChunkRing::stop()
{
    tail_.fetch_or(1, std::memory_order_release);
    tail_.notify_one();
}

namespace {

/** Stage A on a helper thread, chunks handed over through a ring. */
void
runBeside(WalkStage &walk, LlcStage &llc, const CancelToken *cancel)
{
    ChunkRing ring;
    // A dedicated thread, not a thread-pool worker: the caller may
    // itself be the pool worker that would have to run it.
    std::jthread helper([&] {
        while (WalkChunk *slot = ring.claim()) {
            walk.fill(*slot);
            if (slot->count == 0)
                break;
            ring.publish();
        }
        ring.close();
    });
    cpu_budget::keepOffCallerCpu(helper);
    // Declared after the thread, so it runs first on the way out,
    // normal or not: the helper leaves its wait before the jthread
    // destructor joins it.
    StopOnExit stop_on_exit{ring};
    while (const WalkChunk *chunk = ring.acquire()) {
        if (cancel)
            cancel->throwIfCancelled();
        llc.run(*chunk);
        ring.release();
    }
}

/** Both stages on the calling thread, one chunk at a time. */
void
runAlternating(WalkStage &walk, LlcStage &llc, const CancelToken *cancel)
{
    WalkChunk chunk; // ~25 KiB, on the stack: no allocation per run
    for (;;) {
        walk.fill(chunk);
        if (chunk.count == 0)
            break;
        if (cancel)
            cancel->throwIfCancelled();
        llc.run(chunk);
    }
}

} // namespace

void
runStages(WalkStage &walk, LlcStage &llc, const CancelToken *cancel,
          WalkThread where)
{
    if (where == WalkThread::Helper)
        runBeside(walk, llc, cancel);
    else
        runAlternating(walk, llc, cancel);
    // Stage A stopped at the source's failure; every access walked
    // before it has been replayed.
    if (walk.error())
        std::rethrow_exception(walk.error());
}

} // namespace sim
} // namespace glider
