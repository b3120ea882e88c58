/**
 * @file
 * Open-loop load accounting for the serving workload.
 *
 * Independent tenants send on a schedule whether or not earlier
 * requests were answered, so the generator is an open loop: request i
 * of a rate-r step is due at start + i / r. Latency is measured from
 * the due time, not the send time, so a stall that delays sending
 * charges its wait to every request it held back. The ledger also
 * records how late the generator itself sent (lag): a large lag means
 * the harness, not the system, limited the offered rate.
 */

#ifndef PERFBENCH_LOADGEN_HH
#define PERFBENCH_LOADGEN_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "harness/stats.hh"

namespace perfbench {

/** Due time of request @p i in a step starting at @p start_ns. */
inline std::uint64_t
dueNs(std::uint64_t start_ns, double ops_per_s, std::size_t i)
{
    return start_ns
        + static_cast<std::uint64_t>(static_cast<double>(i) * 1e9
                                     / ops_per_s);
}

/** Per-request outcomes of one open-loop step. */
class LoadLedger
{
  public:
    /** Request due at @p due_ns, sent at @p sent_ns, answered at @p done_ns. */
    void
    answered(std::uint64_t due_ns, std::uint64_t sent_ns,
             std::uint64_t done_ns)
    {
        lag_us_.push_back(usBetween(due_ns, sent_ns));
        latency_us_.push_back(usBetween(due_ns, done_ns));
    }

    /**
     * Request due at @p due_ns, sent at @p sent_ns, failed: refused,
     * quarantined, or never answered.
     */
    void
    lost(std::uint64_t due_ns, std::uint64_t sent_ns)
    {
        lag_us_.push_back(usBetween(due_ns, sent_ns));
        ++failed_;
    }

    std::size_t attempted() const { return lag_us_.size(); }
    std::size_t failed() const { return failed_; }

    /**
     * Latency percentile over every attempted request. A failed
     * request counts as missing any limit, so it ranks above every
     * answered one (it enters the sample as +infinity).
     */
    Percentile
    latencyUs(double q) const
    {
        std::vector<double> all = latency_us_;
        all.insert(all.end(), failed_, kFailedLatency);
        return percentile(std::move(all), q);
    }

    /** Generator lag percentile (how late requests were sent). */
    Percentile lagUs(double q) const { return percentile(lag_us_, q); }

    /** Stand-in latency of a failed request: beyond any limit. */
    static constexpr double kFailedLatency = 1e300;

  private:
    static double
    usBetween(std::uint64_t from_ns, std::uint64_t to_ns)
    {
        return to_ns > from_ns
            ? static_cast<double>(to_ns - from_ns) / 1e3
            : 0.0;
    }

    std::vector<double> latency_us_;
    std::vector<double> lag_us_;
    std::size_t failed_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_HH
