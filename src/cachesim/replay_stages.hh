/**
 * @file
 * The two stages of the single-core replay and the handoff between
 * them.
 *
 * Each access's L1/L2 outcome depends only on the core's own access
 * sequence (the hierarchy is non-inclusive, with no back-
 * invalidation), so the replay splits in two without changing a
 * single simulated count:
 *
 *  - WalkStage (stage A) reads the AccessSource and walks the private
 *    L1/L2. Per chunk it emits one AccessDepth per access (L1, L2, or
 *    Llc for "beyond L2") plus an LlcRequest for each access that
 *    goes beyond L2.
 *  - LlcStage (stage B, the calling thread) replays those requests
 *    into the LLC under study and steps the core model.
 *
 * An in-memory trace needs no stage A: its walk is memoised on the
 * trace (walk_memo.hh), and LlcStage replays the records beside their
 * depth codes. Streamed sources take runStages(), which wires the two
 * stages together: stage A either alternates with stage B on the
 * calling thread, one chunk at a time, or runs beside it on a helper
 * thread, handing chunks over through a ChunkRing of preallocated
 * slots.
 */

#ifndef GLIDER_CACHESIM_REPLAY_STAGES_HH
#define GLIDER_CACHESIM_REPLAY_STAGES_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <vector>

#include "access_source.hh"
#include "common/cancellation.hh"
#include "core_model.hh"
#include "hierarchy.hh"
#include "walk_memo.hh"

namespace glider {
namespace sim {

/** One access that went beyond L2, as the LLC stage needs it. */
struct LlcRequest
{
    std::uint64_t pc;
    std::uint64_t block;
    bool is_write;
};

/** Stage A's output for up to kCapacity consecutive accesses. */
struct WalkChunk
{
    static constexpr std::uint32_t kCapacity = 1024;

    std::uint32_t count = 0; //!< accesses in this chunk
    /** Per access: L1, L2, or Llc when it went beyond L2. */
    std::array<AccessDepth, kCapacity> depth;
    /** The beyond-L2 accesses, in access order. */
    std::array<LlcRequest, kCapacity> llc;
};

/** Stage A: reads the source and walks one core's private L1/L2. */
class WalkStage
{
  public:
    /**
     * @param source Rewound source; only this stage reads it.
     * @param warmup_end Access count after which the private-level
     *        counters reset (0: never).
     */
    WalkStage(AccessSource &source, const HierarchyConfig &config,
              std::uint64_t warmup_end);
    WalkStage(const WalkStage &) = delete;
    WalkStage &operator=(const WalkStage &) = delete;

    /**
     * Walk the next accesses into @p out, filling it unless the
     * source runs out or fails; out.count == 0 once it has. When the
     * source throws, @p out keeps the accesses walked before the
     * failure, so they are still replayed ahead of it, and error()
     * holds the exception.
     */
    void fill(WalkChunk &out);

    /** The source's exception, or null while it has not thrown. */
    std::exception_ptr error() const { return error_; }

  private:
    AccessSource &source_;
    PrivateWalk walk_;
    std::span<const traces::AccessRecord> records_; //!< source chunk
    std::size_t pos_ = 0;                           //!< into records_
    std::uint64_t index_ = 0;                       //!< accesses walked
    std::uint64_t warmup_end_;
    std::exception_ptr error_; //!< set once the source threw
};

/** Stage B: the LLC under study and the core timing model. */
class LlcStage
{
  public:
    /**
     * @param warmup_end Access count after which the LLC and core
     *        counters reset (0: never).
     */
    LlcStage(const HierarchyConfig &config, const CoreParams &core,
             std::unique_ptr<ReplacementPolicy> llc_policy,
             std::uint64_t warmup_end);
    LlcStage(const LlcStage &) = delete;
    LlcStage &operator=(const LlcStage &) = delete;

    /** Replay one chunk: LLC access for every beyond-L2 request,
     *  then a core-model step for every access. */
    void run(const WalkChunk &chunk);

    /**
     * Replay @p records, each stopping in the private levels where
     * @p depths says, polling @p cancel (may be null) once every
     * WalkChunk::kCapacity accesses.
     */
    void run(std::span<const traces::AccessRecord> records,
             DepthCodes depths, const CancelToken *cancel);

    /** Drain the core model at the end of the replay. */
    void finish() { core_.finish(); }

    const Cache &cache() const { return llc_.cache(); }
    const CoreModel &core() const { return core_; }
    std::uint64_t accesses() const { return index_; }

  private:
    /** One access that stopped at @p depth in the private levels;
     *  @p request() gives its LlcRequest when depth is Llc. */
    template <typename Request>
    void step(AccessDepth depth, Request &&request);

    DepthLatencies latency_;
    SharedLlc llc_;
    CoreModel core_;
    std::uint64_t index_ = 0; //!< accesses replayed
    std::uint64_t warmup_end_;
};

/**
 * Bounded single-producer/single-consumer handoff of WalkChunks.
 * The producer claims a free slot, fills it and publishes it; the
 * consumer acquires the oldest published slot and releases it when
 * done. Each side waits on the other's word: a brief spin, then a
 * blocking std::atomic::wait, so an oversubscribed host loses time
 * slices rather than burning them. Either side can end the handoff:
 * the producer closes (no more chunks), the consumer stops (no more
 * wanted).
 *
 * A side only waits on a full (producer) or empty (consumer) ring,
 * so the other side is sure to publish or release kWakeEvery more
 * slots, or to end the handoff, before the waiter has anything to
 * do; it notifies only then. A sleeping side is thus woken once per
 * kWakeEvery chunks rather than once per chunk, which matters most
 * when the scheduler puts both threads on one CPU.
 */
class ChunkRing
{
  public:
    static constexpr std::uint64_t kSlots = 8;
    static constexpr std::uint64_t kWakeEvery = kSlots / 2;

    ChunkRing() : slots_(kSlots) {}
    ChunkRing(const ChunkRing &) = delete;
    ChunkRing &operator=(const ChunkRing &) = delete;

    /** Producer: a free slot, or nullptr once the consumer stopped. */
    WalkChunk *claim();
    /** Producer: hand the claimed slot to the consumer. */
    void publish();
    /** Producer: no chunk follows the published ones. */
    void close();

    /**
     * Consumer: the oldest published slot, or nullptr once the
     * producer closed and every published slot was acquired.
     */
    const WalkChunk *acquire();
    /** Consumer: give the acquired slot back. */
    void release();
    /** Consumer: ask the producer to stop. */
    void stop();

  private:
    /** Wait until @p word differs from @p seen; return its value. */
    static std::uint64_t
    awaitChange(const std::atomic<std::uint64_t> *word,
                std::uint64_t seen);

    std::vector<WalkChunk> slots_;
    // Both words hold (slots handed over << 1) | end bit; each shares
    // a cache line only with the count its own writer keeps.
    // glider-mo: publish — the producer's release increment hands a
    // filled slot to the consumer's acquire load; the close bit is
    // set with release after the last slot.
    alignas(64) std::atomic<std::uint64_t> head_{0};
    std::uint64_t produced_ = 0; //!< the producer's own count
    // glider-mo: publish — the consumer's release increment hands a
    // drained slot back to the producer's acquire load; the stop bit
    // is set with release.
    alignas(64) std::atomic<std::uint64_t> tail_{0};
    std::uint64_t consumed_ = 0; //!< the consumer's own count
};

/** Where runStages() runs stage A. */
enum class WalkThread
{
    Caller, //!< alternating with stage B, one chunk at a time
    Helper, //!< on a helper thread started for the call, beside B
};

/**
 * Run @p walk and @p llc until the source is exhausted, with @p llc
 * on the calling thread and @p walk where @p where says, polling
 * @p cancel (may be null) once per chunk. An exception in either
 * stage stops (and joins) the other, then propagates on the calling
 * thread; the first failure in access order wins, as in a sequential
 * replay. Both placements give the same counts.
 */
void runStages(WalkStage &walk, LlcStage &llc, const CancelToken *cancel,
               WalkThread where);

} // namespace sim
} // namespace glider

#endif // GLIDER_CACHESIM_REPLAY_STAGES_HH
