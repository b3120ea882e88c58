/**
 * @file
 * In-memory span log for the traced run.
 *
 * The benchmark records a span around each call it makes into a
 * layer: name, start, end, the span that caused it, and (on the
 * serving workload) a request id. Calls too short and too frequent to
 * record one by one — policy hooks, chunk fetches — are timed by the
 * forwarding decorators and entered once per parent as an aggregate
 * span: it carries the summed duration (busy_ns) and call count of
 * calls interleaved with the parent's own work.
 *
 * Self time of a span is its duration minus what its children cover:
 * the union of its exact children's intervals (clipped to the span)
 * plus the busy time of its aggregate children.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Steady-clock nanoseconds, the clock every span and latency uses. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Seconds elapsed since steady-clock stamp @p t0_ns. */
inline double
secondsSince(std::uint64_t t0_ns)
{
    return static_cast<double>(nowNs() - t0_ns) / 1e9;
}

/**
 * Time one steady-clock read adds between the two stamps of a timed
 * call: the median gap between back-to-back reads, measured once.
 * The decorators subtract it per call so a short call's busy time
 * is not mostly the clock; the rest of the clock's cost stays in the
 * parent span's self time, and trace.overhead_pct shows its size.
 */
inline double
clockReadNs()
{
    static const double ns = [] {
        constexpr int kReads = 1000;
        std::vector<double> gaps;
        for (int rep = 0; rep < 51; ++rep) {
            std::uint64_t sum = 0;
            for (int i = 0; i < kReads; ++i) {
                std::uint64_t a = nowNs();
                sum += nowNs() - a;
            }
            gaps.push_back(static_cast<double>(sum) / kReads);
        }
        std::sort(gaps.begin(), gaps.end());
        return gaps[gaps.size() / 2];
    }();
    return ns;
}

/** @p ns measured over @p calls timed calls, less the clock's share. */
inline std::uint64_t
lessClock(std::uint64_t ns, std::uint64_t calls)
{
    auto clock = static_cast<std::uint64_t>(
        clockReadNs() * static_cast<double>(calls));
    return ns > clock ? ns - clock : 0;
}

/** One recorded span. */
struct Span
{
    static constexpr std::uint32_t kNoParent = ~0u;

    std::uint32_t name = 0;             //!< index into SpanLog::names
    std::uint32_t parent = kNoParent;   //!< causing span's index
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t busy_ns = 0; //!< duration, or summed call time
    std::uint64_t calls = 1;   //!< 1 for an exact span
    std::uint64_t request = 0; //!< request id (serving workload)
    bool aggregate = false;
};

/** Span recorder; every method is a no-op while disabled. */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

    /** Open a span under the innermost open span. @return its id. */
    std::uint32_t
    begin(const std::string &name, std::uint64_t request = 0)
    {
        if (!enabled_)
            return Span::kNoParent;
        Span s;
        s.name = intern(name);
        s.parent = stack_.empty() ? Span::kNoParent : stack_.back();
        s.start_ns = nowNs();
        s.request = request;
        spans_.push_back(s);
        auto id = static_cast<std::uint32_t>(spans_.size() - 1);
        stack_.push_back(id);
        return id;
    }

    /** Close span @p id, which must be the innermost open span. */
    void
    end(std::uint32_t id)
    {
        if (!enabled_)
            return;
        Span &s = spans_[id];
        s.end_ns = nowNs();
        s.busy_ns = s.end_ns - s.start_ns;
        stack_.pop_back();
    }

    /**
     * Record a finished exact span under @p parent from stamps taken
     * elsewhere (per-request spans on the serving workload).
     */
    void
    record(const std::string &name, std::uint32_t parent,
           std::uint64_t start_ns, std::uint64_t end_ns,
           std::uint64_t request)
    {
        if (!enabled_)
            return;
        Span s;
        s.name = intern(name);
        s.parent = parent;
        s.start_ns = start_ns;
        s.end_ns = std::max(start_ns, end_ns);
        s.busy_ns = s.end_ns - s.start_ns;
        s.request = request;
        spans_.push_back(s);
    }

    /**
     * Record @p calls short calls totalling @p busy_ns, made while
     * span @p parent (already closed) was open.
     */
    void
    aggregate(const std::string &name, std::uint32_t parent,
              std::uint64_t busy_ns, std::uint64_t calls)
    {
        if (!enabled_ || calls == 0)
            return;
        Span s;
        s.name = intern(name);
        s.parent = parent;
        s.start_ns = spans_[parent].start_ns;
        s.end_ns = spans_[parent].end_ns;
        s.busy_ns = busy_ns;
        s.calls = calls;
        s.aggregate = true;
        spans_.push_back(s);
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of every span, indexed like spans(). */
    std::vector<std::uint64_t>
    selfTimes() const
    {
        std::vector<std::vector<std::uint32_t>> exact(spans_.size());
        std::vector<std::uint64_t> folded(spans_.size(), 0);
        for (std::uint32_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (s.parent == Span::kNoParent)
                continue;
            if (s.aggregate)
                folded[s.parent] += s.busy_ns;
            else
                exact[s.parent].push_back(i);
        }
        std::vector<std::uint64_t> self(spans_.size(), 0);
        for (std::uint32_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (s.aggregate) {
                self[i] = s.busy_ns; // leaves: no children
                continue;
            }
            std::uint64_t covered =
                coveredNs(s, exact[i]) + folded[i];
            std::uint64_t dur = s.end_ns - s.start_ns;
            self[i] = covered >= dur ? 0 : dur - covered;
        }
        return self;
    }

    /** Summed busy and self time per span name. */
    struct Totals
    {
        std::uint64_t busy_ns = 0;
        std::uint64_t self_ns = 0;
        std::uint64_t calls = 0;
    };

    std::map<std::string, Totals>
    totalsByName() const
    {
        std::map<std::string, Totals> out;
        auto self = selfTimes();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            Totals &t = out[names_[spans_[i].name]];
            t.busy_ns += spans_[i].busy_ns;
            t.self_ns += self[i];
            t.calls += spans_[i].calls;
        }
        return out;
    }

    /**
     * Write every span as one tab-separated line (id, parent, name,
     * start and end in ns from the first span, busy_ns, self_ns,
     * calls, request, aggregate flag). @return false on I/O error.
     */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
        auto self = selfTimes();
        std::fprintf(f, "id\tparent\tname\tstart_ns\tend_ns\tbusy_ns\t"
                        "self_ns\tcalls\trequest\taggregate\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            long long parent = s.parent == Span::kNoParent
                ? -1
                : static_cast<long long>(s.parent);
            std::fprintf(
                f, "%zu\t%lld\t%s\t%llu\t%llu\t%llu\t%llu\t%llu\t%llu\t%d\n",
                i, parent, names_[s.name].c_str(),
                static_cast<unsigned long long>(s.start_ns - t0),
                static_cast<unsigned long long>(s.end_ns - t0),
                static_cast<unsigned long long>(s.busy_ns),
                static_cast<unsigned long long>(self[i]),
                static_cast<unsigned long long>(s.calls),
                static_cast<unsigned long long>(s.request),
                s.aggregate ? 1 : 0);
        }
        return std::fclose(f) == 0;
    }

  private:
    std::uint32_t
    intern(const std::string &name)
    {
        auto it = ids_.find(name);
        if (it != ids_.end())
            return it->second;
        names_.push_back(name);
        auto id = static_cast<std::uint32_t>(names_.size() - 1);
        ids_.emplace(name, id);
        return id;
    }

    /** Length of the union of @p kids' intervals, clipped to @p s. */
    std::uint64_t
    coveredNs(const Span &s, std::vector<std::uint32_t> kids) const
    {
        std::sort(kids.begin(), kids.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      return spans_[a].start_ns < spans_[b].start_ns;
                  });
        std::uint64_t covered = 0;
        std::uint64_t reach = s.start_ns; // end of the union so far
        for (std::uint32_t k : kids) {
            std::uint64_t lo = std::max(spans_[k].start_ns, reach);
            std::uint64_t hi = std::min(spans_[k].end_ns, s.end_ns);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        return covered;
    }

    bool enabled_;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> stack_;
    std::vector<std::string> names_;
    std::map<std::string, std::uint32_t> ids_;
};

/** RAII span: begin on construction, end on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const std::string &name,
               std::uint64_t request = 0)
        : log_(log), id_(log.begin(name, request))
    {
    }
    ~ScopedSpan() { log_.end(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint32_t id() const { return id_; }

  private:
    SpanLog &log_;
    std::uint32_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
