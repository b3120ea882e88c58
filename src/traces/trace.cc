#include "trace.hh"

#include <cstdio>
#include <cstring>

namespace glider {
namespace traces {

namespace {

constexpr char kMagic[8] = {'G', 'L', 'D', 'R', 'T', 'R', 'C', '1'};

struct FileRecord
{
    std::uint64_t pc;
    std::uint64_t address;
    std::uint8_t core;
    std::uint8_t is_write;
    std::uint8_t pad[6];
};

static_assert(sizeof(FileRecord) == 24, "file record must be packed");

} // namespace

Trace::Trace(const Trace &other)
    : name_(other.name_), records_(other.records_)
{
}

Trace &
Trace::operator=(const Trace &other)
{
    if (this != &other) {
        dropMemo();
        name_ = other.name_;
        records_ = other.records_;
    }
    return *this;
}

Trace::Trace(Trace &&other) noexcept
    : name_(std::move(other.name_)), records_(std::move(other.records_))
{
    takeMemo(other);
}

Trace &
Trace::operator=(Trace &&other) noexcept
{
    if (this != &other) {
        name_ = std::move(other.name_);
        records_ = std::move(other.records_);
        takeMemo(other);
    }
    return *this;
}

void
Trace::dropMemo()
{
    LockGuard lock(memo_mutex_);
    memo_.clear();
    memoised_.store(false, std::memory_order_relaxed);
}

void
Trace::takeMemo(Trace &other)
{
    MemoSlots slots;
    {
        LockGuard lock(other.memo_mutex_);
        slots.swap(other.memo_);
        other.memoised_.store(false, std::memory_order_relaxed);
    }
    LockGuard lock(memo_mutex_);
    memo_ = std::move(slots);
    memoised_.store(!memo_.empty(), std::memory_order_relaxed);
}

std::span<const std::uint8_t>
Trace::memo(std::uint64_t key, const MemoBuilder &build, bool *built) const
{
    MemoSlot *slot = nullptr;
    {
        LockGuard lock(memo_mutex_);
        for (const auto &s : memo_) {
            if (s->key == key)
                slot = s.get();
        }
        if (slot == nullptr) {
            memo_.push_back(std::make_unique<MemoSlot>());
            slot = memo_.back().get();
            slot->key = key;
            memoised_.store(true, std::memory_order_relaxed);
        }
    }
    bool ran = false;
    std::call_once(slot->once, [&] {
        ran = true;
        build(slot->bytes);
    });
    if (built != nullptr)
        *built = ran;
    return slot->bytes;
}

Trace
Trace::slice(std::size_t first, std::size_t count) const
{
    Trace out(name_ + ".slice");
    if (first >= records_.size())
        return out;
    std::size_t last = first + count;
    if (last > records_.size())
        last = records_.size();
    for (std::size_t i = first; i < last; ++i)
        out.push(records_[i]);
    return out;
}

bool
Trace::save(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    bool ok = std::fwrite(kMagic, sizeof(kMagic), 1, f) == 1;
    std::uint64_t n = records_.size();
    ok = ok && std::fwrite(&n, sizeof(n), 1, f) == 1;
    for (std::size_t i = 0; ok && i < records_.size(); ++i) {
        FileRecord fr{};
        fr.pc = records_[i].pc;
        fr.address = records_[i].address;
        fr.core = records_[i].core;
        fr.is_write = records_[i].is_write ? 1 : 0;
        ok = std::fwrite(&fr, sizeof(fr), 1, f) == 1;
    }
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

bool
Trace::load(const std::string &path, Trace &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    char magic[8];
    bool ok = std::fread(magic, sizeof(magic), 1, f) == 1
        && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
    std::uint64_t n = 0;
    ok = ok && std::fread(&n, sizeof(n), 1, f) == 1;
    // Diagnose truncation and trailing garbage up front: the byte
    // count must be exactly header + n fixed-width records. A partial
    // final record (torn write, interrupted copy) or extra bytes past
    // the declared count both mean the file does not round-trip what
    // save() wrote.
    constexpr std::uint64_t kHeaderBytes =
        sizeof(kMagic) + sizeof(std::uint64_t);
    constexpr std::uint64_t kMaxRecords =
        (UINT64_MAX - kHeaderBytes) / sizeof(FileRecord);
    if (ok && n > kMaxRecords)
        ok = false;
    if (ok) {
        long here = std::ftell(f);
        ok = here >= 0 && std::fseek(f, 0, SEEK_END) == 0;
        long end = ok ? std::ftell(f) : -1;
        ok = ok && end >= 0
            && static_cast<std::uint64_t>(end)
                == kHeaderBytes + n * sizeof(FileRecord)
            && std::fseek(f, here, SEEK_SET) == 0;
    }
    out = Trace(path);
    for (std::uint64_t i = 0; ok && i < n; ++i) {
        FileRecord fr{};
        ok = std::fread(&fr, sizeof(fr), 1, f) == 1;
        if (ok)
            out.push(fr.pc, fr.address, fr.is_write != 0, fr.core);
    }
    std::fclose(f);
    return ok && out.size() == n;
}

} // namespace traces
} // namespace glider
