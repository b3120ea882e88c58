/**
 * @file
 * Shared pieces of the benchmark program: run options, the report
 * every workload fills, and the seeded kernel factory.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/spans.hh"
#include "traces/trace.hh"
#include "workloads/kernel.hh"

namespace perfbench {

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0; //!< measured time per run
    bool trace = false;    //!< traced run: per-layer metrics
    std::string workdir;   //!< scratch files (gtrace spills, spans)
};

/** One reported number. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/**
 * What a workload run produced: end-to-end and per-layer metrics,
 * operations attempted and failed, and the self-check failures.
 */
struct Report
{
    std::map<std::string, Metric> end_to_end;
    std::map<std::string, Metric> per_layer;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    void
    e2e(const std::string &name, double value, const std::string &unit)
    {
        end_to_end[name] = {value, unit};
    }

    void
    layer(const std::string &name, double value, const std::string &unit)
    {
        per_layer[name] = {value, unit};
    }

    /** Count one failed operation or self-check when @p ok is false. */
    void
    check(bool ok, const std::string &what)
    {
        if (ok)
            return;
        ++failed;
        failures.push_back(what);
    }
};

/** Number of times set-up runs in each run; setup_s is their median. */
constexpr int kSetupRepeats = 5;

/**
 * Seeded kernel for a registry workload name, built from the public
 * kernel Params with the registry's shape and PC namespace but with a
 * seed derived from @p seed. Fatal for names the benchmark does not
 * use.
 */
std::unique_ptr<glider::workloads::Kernel>
makeKernel(const std::string &name, std::uint64_t accesses,
           std::uint64_t seed);

/**
 * Run the seeded kernel into an in-memory trace of exactly @p accesses
 * records (its first ones), so every seed gives the same amount of
 * work.
 */
glider::traces::Trace generateTrace(const std::string &name,
                                    std::uint64_t accesses,
                                    std::uint64_t seed);

/** Peak resident set of this process, MiB. */
double peakRssMib();

/** Policy name as a metric-name component ("SHiP++" -> "SHiPpp"). */
std::string metricName(const std::string &policy);

// Workload entry points (sim_workloads.cc, serve_workload.cc).
void runFig11Llc(const Options &opts, SpanLog &spans, Report &report);
void runPrivateStream(const Options &opts, SpanLog &spans,
                      Report &report);
void runServeTail(const Options &opts, SpanLog &spans, Report &report);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
