/**
 * @file
 * In-memory access traces with binary file round-tripping.
 *
 * A Trace is the interchange format between the workload generators,
 * the cache simulator, the Belady oracle, and the offline learning
 * pipeline.
 */

#ifndef GLIDER_TRACES_TRACE_HH
#define GLIDER_TRACES_TRACE_HH

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex> // std::once_flag / std::call_once
#include <span>
#include <string>
#include <vector>

#include "access.hh"
#include "common/thread_annotations.hh"
#include "sink.hh"

namespace glider {
namespace traces {

/**
 * A named, ordered sequence of memory accesses, held in RAM.
 *
 * A trace also memoises bytes derived from its records (memo()), so
 * work that depends only on the records is done once per trace, not
 * once per reader. Every change to the records drops the memo. A copy
 * starts with an empty memo; a move carries it along.
 */
class Trace : public TraceSink
{
  public:
    Trace() = default;
    explicit Trace(std::string name) : name_(std::move(name)) {}

    Trace(const Trace &other);
    Trace &operator=(const Trace &other);
    Trace(Trace &&other) noexcept;
    Trace &operator=(Trace &&other) noexcept;

    /** Append one access. */
    void push(const AccessRecord &rec) override
    {
        if (memoised_.load(std::memory_order_relaxed)) [[unlikely]]
            dropMemo();
        records_.push_back(rec);
    }

    using TraceSink::push;

    /** Append an access by fields. */
    void
    push(std::uint64_t pc, std::uint64_t address, bool is_write = false,
         std::uint8_t core = 0)
    {
        push(AccessRecord{pc, address, core, is_write});
    }

    const std::string &name() const { return name_; }
    void setName(std::string n) { name_ = std::move(n); }

    std::uint64_t size() const override { return records_.size(); }
    bool empty() const { return records_.empty(); }
    const AccessRecord &operator[](std::size_t i) const
    {
        return records_[i];
    }
    const std::vector<AccessRecord> &records() const { return records_; }

    auto begin() const { return records_.begin(); }
    auto end() const { return records_.end(); }

    /** Keep only the first @p n accesses. */
    void
    truncate(std::size_t n)
    {
        if (n < records_.size()) {
            dropMemo();
            records_.resize(n);
        }
    }

    /** Sub-trace of records [first, first+count), clamped to size. */
    Trace slice(std::size_t first, std::size_t count) const;

    /**
     * Serialise to a binary file (little-endian, fixed-width records
     * behind a small magic/version header).
     * @return true on success.
     */
    bool save(const std::string &path) const;

    /**
     * Deserialise a trace previously written by save(). Rejects files
     * with a bad magic, a truncated header, fewer bytes than the
     * declared record count requires (including a partial final
     * record), or trailing bytes past the last record.
     */
    static bool load(const std::string &path, Trace &out);

    /** Fills the bytes of one memo() entry from the records. */
    using MemoBuilder = std::function<void(std::vector<std::uint8_t> &)>;

    /**
     * The bytes memoised under @p key, built by @p build on the first
     * request. Concurrent callers for one key block until the single
     * build finishes; a build that throws leaves the key unbuilt.
     * The span stays valid until the records change or the trace
     * dies. @p key must name everything the bytes depend on besides
     * the records.
     * @param built Set to whether this call ran @p build (optional).
     */
    std::span<const std::uint8_t> memo(std::uint64_t key,
                                       const MemoBuilder &build,
                                       bool *built = nullptr) const;

  private:
    /** One memo entry; once-initialised so builds never repeat. */
    struct MemoSlot
    {
        std::uint64_t key = 0;
        std::once_flag once;
        std::vector<std::uint8_t> bytes;
    };
    using MemoSlots = std::vector<std::unique_ptr<MemoSlot>>;

    /** Forget every memo entry (the records are about to change). */
    void dropMemo();
    /** Take @p other's memo entries, which it loses. */
    void takeMemo(Trace &other);

    std::string name_;
    std::vector<AccessRecord> records_;
    mutable Mutex memo_mutex_;
    mutable MemoSlots memo_ GLIDER_GUARDED_BY(memo_mutex_);
    // glider-mo: flag-relaxed — whether memo_ holds an entry: the one
    // branch push() pays. Records change only under exclusive access,
    // so no data is published under it.
    mutable std::atomic<bool> memoised_{false};
};

} // namespace traces
} // namespace glider

#endif // GLIDER_TRACES_TRACE_HH
