/**
 * @file
 * A fixed reference kernel that measures how fast the host runs at the
 * moment, so the benchmark can take the host's speed out of its
 * timings.
 *
 * On a shared host, other tenants slow this memory-bound program by up
 * to 60%, in phases that last from seconds to minutes; no statistic
 * over one run removes a phase that covers the whole run. The probe is
 * a small set-associative LRU tag model, the same kind of work as the
 * simulator but the benchmark's own code, so no change to the library
 * moves it. It is timed right before and right after each measured
 * step, and the step's seconds are scaled by
 * kReferenceS / (mean of the two probe times). The result is
 * host-normalised seconds: what the step would have taken with the
 * host running at the speed at which the probe takes kReferenceS.
 */

#ifndef PERFBENCH_HOST_PROBE_HH
#define PERFBENCH_HOST_PROBE_HH

#include <cstdint>
#include <cstdio>
#include <vector>

#include "harness/common.hh"
#include "harness/spans.hh"
#include "harness/stats.hh"

namespace perfbench {

class HostProbe
{
  public:
    /** The probe's median time on the reference host (a 4-vCPU VM). */
    static constexpr double kReferenceS = 0.0042;

    HostProbe() : ways_(static_cast<std::size_t>(kSets) * kWays)
    {
        run(); // fill the tag model so every timed run starts alike
        samples_.clear();
    }

    /** Run the reference kernel once. @return its host seconds. */
    double
    run()
    {
        std::uint64_t t0 = nowNs();
        std::uint64_t x = 42;
        std::uint64_t hits = 0;
        for (std::uint64_t i = 1; i <= kAccesses; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            std::uint64_t line = (x >> 40) % kLines;
            if ((x >> 20) & 1)
                line &= kHotMask; // half the accesses go to a hot set
            Way *set = &ways_[(line % kSets) * kWays];
            Way *victim = set;
            Way *hit = nullptr;
            for (std::uint32_t w = 0; w < kWays; ++w) {
                if (set[w].tag == line + 1) {
                    hit = &set[w];
                    break;
                }
                if (set[w].stamp < victim->stamp)
                    victim = &set[w];
            }
            if (hit != nullptr) {
                ++hits;
                ++hit->uses;
                hit->stamp = i;
            } else {
                *victim = Way{line + 1, i, 0, 0};
            }
        }
        sink_ = hits;
        double s = secondsSince(t0);
        samples_.push_back(s);
        return s;
    }

    /** Probe before a measured step; normalise() probes after it. */
    void begin() { before_ = run(); }

    /**
     * Probe after a step measured since the last begin() or factor().
     * @return the factor that turns the step's host seconds into
     * host-normalised seconds. The probe taken here is also the next
     * step's "before", so back-to-back steps need no begin() between.
     */
    double
    factor()
    {
        double after = run();
        double around = 0.5 * (before_ + after);
        before_ = after;
        return scale(1.0, around);
    }

    /** factor() applied to a step that took @p seconds. */
    double normalise(double seconds) { return seconds * factor(); }

    /** @p seconds scaled to the reference host speed. */
    static double
    scale(double seconds, double probe_s)
    {
        return probe_s > 0.0 ? seconds * kReferenceS / probe_s : seconds;
    }

    /** Every probe time of this run, seconds. */
    const std::vector<double> &samples() const { return samples_; }

  private:
    static constexpr std::uint32_t kSets = 4096;
    static constexpr std::uint32_t kWays = 16;
    static constexpr std::uint64_t kLines = 1ull << 17;
    static constexpr std::uint64_t kHotMask = (1ull << 14) - 1;
    static constexpr std::uint64_t kAccesses = 100'000;

    /** One way of the tag model: 32 bytes, like a policy's line state. */
    struct Way
    {
        std::uint64_t tag = 0; //!< line + 1; 0 is empty
        std::uint64_t stamp = 0;
        std::uint64_t uses = 0;
        std::uint64_t spare = 0;
    };

    std::vector<Way> ways_;
    std::vector<double> samples_;
    double before_ = 0.0;
    volatile std::uint64_t sink_ = 0;
};

/**
 * Report the run's median probe time as host.probe_ms and print how
 * far the host's speed moved during the run.
 */
inline void
reportProbe(Report &report, const HostProbe &probe)
{
    const auto &s = probe.samples();
    double med = median(s);
    std::printf("host probe: median %.3f ms (reference %.3f ms), "
                "p10 %.3f ms, p90 %.3f ms over %zu probes\n",
                1e3 * med, 1e3 * HostProbe::kReferenceS,
                1e3 * percentile(s, 10).value, 1e3 * percentile(s, 90).value,
                s.size());
    report.layer("host.probe_ms", 1e3 * med, "ms");
}

} // namespace perfbench

#endif // PERFBENCH_HOST_PROBE_HH
