/**
 * @file
 * The repo benchmark's entry point. One run replays one workload for a
 * fixed time and prints its metrics; the last line of standard output
 * is a JSON object with keys correct, attempted, failed and metrics.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--workdir <dir>]
 *
 * --trace 0 reports the end-to-end metrics with tracing off; --trace 1
 * reports the per-layer metrics of a traced run and writes its spans
 * to <workdir>/spans-<workload>-<seed>.tsv. See perfbench/README.md.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "harness/common.hh"

namespace perfbench {

namespace {

/** Every end-to-end metric, with its unit; each run reports all. */
const std::pair<const char *, const char *> kEndToEnd[] = {
    {"throughput_mops", "Mop/s"},
    {"sweep_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
};

/** Policies whose hooks the traced run reports. */
const char *const kHookPolicies[] = {"LRU",    "Hawkeye", "MPPPB",
                                     "SHiPpp", "Glider",  "MIN"};

/** Every per-layer metric, with its unit; traced runs report all. */
std::vector<std::pair<std::string, std::string>>
perLayerNames()
{
    std::vector<std::pair<std::string, std::string>> names = {
        {"workloads.gen_s", "s"},
        {"workloads.records", "count"},
        {"traces.encode_s", "s"},
        {"traces.decode_s", "s"},
        {"traces.chunks", "count"},
        {"traces.bytes_per_access", "B"},
        {"cachesim.replay_s", "s"},
        {"cachesim.self_s", "s"},
        {"cachesim.walk_ns_per_access", "ns"},
        {"cachesim.core_model_ns_per_access", "ns"},
        {"cachesim.depth.l1", "count"},
        {"cachesim.depth.l2", "count"},
        {"cachesim.depth.llc", "count"},
        {"cachesim.depth.dram", "count"},
        {"policies.hook_s", "s"},
    };
    for (const char *p : kHookPolicies) {
        std::string base = std::string("policies.") + p;
        names.push_back({base + ".hook_ns_per_llc_access", "ns"});
        names.push_back({base + ".hook_calls", "count"});
        names.push_back({base + ".llc_hit_frac", "ratio"});
        names.push_back({base + ".bypass_frac", "ratio"});
    }
    const std::pair<const char *, const char *> rest[] = {
        {"policies.Glider.accuracy.online", "ratio"},
        {"policies.Glider.predictor.train_updates", "count"},
        {"opt.optgen.hit_intervals", "count"},
        {"opt.optgen.miss_intervals", "count"},
        {"opt.extract_s", "s"},
        {"opt.min_replay_s", "s"},
        {"opt.llc_stream_records", "count"},
        {"sim.glider_miss_reduction_pct", "%"},
        {"sim.glider_ipc_speedup_pct", "%"},
        {"serve.submit_ns", "ns"},
        {"serve.rejected", "count"},
        {"serve.ops_per_batch", "ops"},
        {"serve.busy_ns_per_op", "ns"},
        {"serve.tenants", "count"},
        {"serve.sustained_ops_s", "1/s"},
        {"serve.at50k.p50_us", "us"},
        {"serve.at50k.p99_us", "us"},
        {"serve.at50k.samples", "count"},
        {"serve.at200k.p50_us", "us"},
        {"serve.at200k.p99_us", "us"},
        {"serve.at200k.samples", "count"},
        {"serve.at800k.p50_us", "us"},
        {"serve.at800k.p99_us", "us"},
        {"serve.at800k.samples", "count"},
        {"loadgen.lag_us.p99", "us"},
        {"trace.overhead_pct", "%"},
        {"host.probe_ms", "ms"},
    };
    for (const auto &[n, u] : rest)
        names.push_back({n, u});
    return names;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload "
                 "<fig11-llc|private-stream|serve-tail> --seed <n> "
                 "--seconds <s> --trace <0|1> [--workdir <dir>]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    opts.workdir = ".bench_build/perfbench/work";
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        std::string val = argv[++i];
        try {
            if (key == "--workload") {
                opts.workload = val;
                have_workload = true;
            } else if (key == "--seed") {
                opts.seed = std::stoull(val);
            } else if (key == "--seconds") {
                opts.seconds = std::stod(val);
            } else if (key == "--trace") {
                if (val != "0" && val != "1")
                    usage("--trace takes 0 or 1");
                opts.trace = val == "1";
            } else if (key == "--workdir") {
                opts.workdir = val;
            } else {
                usage("unknown option " + key);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + key + ": " + val);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(opts.seconds > 0.0 && opts.seconds <= 120.0))
        usage("--seconds must be in (0, 120]");
    return opts;
}

/** JSON-safe rendering of a measured number, all digits kept. */
std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opts = parseArgs(argc, argv);
    std::error_code ec;
    std::filesystem::create_directories(opts.workdir, ec);
    if (ec)
        usage("cannot create workdir " + opts.workdir);

    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0);
    std::fflush(stdout);

    SpanLog spans(opts.trace);
    Report report;
    try {
        if (opts.workload == "fig11-llc")
            runFig11Llc(opts, spans, report);
        else if (opts.workload == "private-stream")
            runPrivateStream(opts, spans, report);
        else if (opts.workload == "serve-tail")
            runServeTail(opts, spans, report);
        else
            usage("unknown workload " + opts.workload);
    } catch (const std::exception &e) {
        report.check(false, std::string("exception: ") + e.what());
    }
    report.e2e("peak_rss_mib", peakRssMib(), "MiB");
    if (report.attempted == 0)
        report.attempted = 1; // a run that did nothing still tried once

    // Select the reported set; every listed metric appears, and a
    // metric a workload does not measure is 0 in the per-layer set.
    std::map<std::string, Metric> out;
    if (opts.trace) {
        for (const auto &[name, unit] : perLayerNames()) {
            auto it = report.per_layer.find(name);
            out[name] = it != report.per_layer.end() ? it->second
                                                     : Metric{0.0, unit};
        }
        for (const auto &[name, m] : report.per_layer) {
            if (out.count(name) == 0)
                report.check(false, "unlisted per-layer metric " + name);
            out[name] = m;
        }
        std::string path = opts.workdir + "/spans-" + opts.workload + "-"
            + std::to_string(opts.seed) + ".tsv";
        if (spans.write(path))
            std::printf("spans: %zu written to %s\n",
                        spans.spans().size(), path.c_str());
        else
            report.check(false, "cannot write " + path);
    } else {
        for (const auto &[name, unit] : kEndToEnd) {
            auto it = report.end_to_end.find(name);
            if (it == report.end_to_end.end()) {
                report.check(false, std::string("missing metric ") + name);
                out[name] = {0.0, unit};
            } else {
                out[name] = it->second;
            }
        }
    }
    for (auto &[name, m] : out) {
        if (!std::isfinite(m.value)) {
            report.check(false, "non-finite metric " + name);
            m.value = 0.0;
        }
    }

    for (const auto &[name, m] : out)
        std::printf("  %-44s %16.6g %s\n", name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("attempted=%llu failed=%llu failed_frac=%.6g\n",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                static_cast<double>(report.failed)
                    / static_cast<double>(report.attempted));
    for (const auto &f : report.failures)
        std::printf("FAILED: %s\n", f.c_str());

    std::string json = "{\"correct\": ";
    json += report.failures.empty() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : out) {
        json += first ? "" : ", ";
        first = false;
        json += "\"" + name + "\": {\"value\": " + number(m.value)
            + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
