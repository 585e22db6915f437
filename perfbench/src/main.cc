/**
 * @file
 * Entry point of the ctamem benchmark binary (see perfbench/README.md).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --root DIR --build-dir DIR [--t0-ns NS] [--setup-only]
 *
 * Runs one workload and prints, as the last line of stdout, one JSON
 * object {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics with --trace 0, the per-layer metrics (plus the
 * tracing overhead) with --trace 1.  --setup-only stops before the
 * first timed operation and prints {"setup_s": ...}.  --t0-ns is the
 * CLOCK_MONOTONIC time the caller spawned this process at; set-up
 * time counts from there.
 */

#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "workloads.hh"

namespace perfbench {

namespace {

Clock::time_point gFirstOperation;
bool gFirstOperationSet = false;

int
usage()
{
    std::cerr << "usage: perfbench --workload campaign-cold|svc-session|"
                 "fuzz-search|paper-tables --seed N --seconds S "
                 "--trace 0|1 --root DIR --build-dir DIR [--t0-ns NS] "
                 "[--setup-only]\n";
    return 2;
}

/** End-to-end metrics of one pass. */
MetricSet
endToEnd(const Pass &pass, double setupSeconds)
{
    MetricSet metrics;
    metrics.set("setup_s", setupSeconds, "s");
    metrics.set("ops_per_s", median(pass.windowRates), "1/s");
    metrics.set("op_ms_p50", percentile(pass.opSeconds, 50.0) * 1e3,
                "ms");
    metrics.set("op_ms_p95", percentile(pass.opSeconds, 95.0) * 1e3,
                "ms");
    metrics.set("peak_rss_mb", median(pass.windowPeakRssMb), "MiB");
    return metrics;
}

} // namespace

void
markFirstOperation()
{
    if (!gFirstOperationSet) {
        gFirstOperation = Clock::now();
        gFirstOperationSet = true;
    }
}

Clock::time_point
firstOperation()
{
    return gFirstOperation;
}

std::string
daemonPath(const Options &options)
{
    return options.buildDir + "/ctamem/svc/ctamemd";
}

std::string
scratchDir(const Options &options, const std::string &tag)
{
    static int counter = 0;
    const std::string path = options.buildDir + "/run/" + tag + "-" +
                             std::to_string(::getpid()) + "-" +
                             std::to_string(counter++);
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path;
}

void
removeTree(const std::string &path)
{
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;

    Options options;
    bool haveT0 = false;
    std::int64_t t0Ns = 0;
    std::string traceFlag = "0";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        try {
            if (arg == "--workload" && hasValue) {
                options.workload = argv[++i];
            } else if (arg == "--seed" && hasValue) {
                options.seed = std::stoull(argv[++i]);
            } else if (arg == "--seconds" && hasValue) {
                options.seconds = std::stod(argv[++i]);
            } else if (arg == "--trace" && hasValue) {
                traceFlag = argv[++i];
            } else if (arg == "--root" && hasValue) {
                options.root = argv[++i];
            } else if (arg == "--build-dir" && hasValue) {
                options.buildDir = argv[++i];
            } else if (arg == "--t0-ns" && hasValue) {
                t0Ns = std::stoll(argv[++i]);
                haveT0 = true;
            } else if (arg == "--setup-only") {
                options.setupOnly = true;
            } else {
                return usage();
            }
        } catch (const std::exception &) {
            return usage();
        }
    }
    if (traceFlag != "0" && traceFlag != "1")
        return usage();
    options.trace = traceFlag == "1";
    if (haveT0)
        options.processStart =
            Clock::time_point(std::chrono::nanoseconds(t0Ns));

    using WorkloadFn = Outcome (*)(const Options &, Tracer &);
    const std::map<std::string, WorkloadFn> workloads = {
        {"campaign-cold", runCampaignCold},
        {"svc-session", runSvcSession},
        {"fuzz-search", runFuzzSearch},
        {"paper-tables", runPaperTables},
    };
    auto it = workloads.find(options.workload);
    if (it == workloads.end())
        return usage();

    Tracer tracer;
    Outcome outcome;
    try {
        outcome = it->second(options, tracer);
    } catch (const std::exception &err) {
        std::cerr << "perfbench: " << options.workload << ": "
                  << err.what() << '\n';
        return 1;
    }
    const double setupSeconds =
        secondsBetween(options.processStart, firstOperation());
    if (options.setupOnly) {
        std::cout << "{\"setup_s\": " << formatNumber(setupSeconds)
                  << "}" << std::endl;
        return 0;
    }

    for (const std::string &error : outcome.errors)
        std::cerr << "perfbench: check failed: " << error << '\n';

    const Pass &untraced = outcome.untraced;
    std::cerr << "perfbench: " << options.workload << " seed "
              << options.seed << ": " << untraced.opSeconds.size()
              << " ops in " << formatNumber(untraced.wallSeconds)
              << " s; window rates";
    for (const double rate : untraced.windowRates)
        std::cerr << ' ' << formatNumber(rate);
    std::cerr << "; window peak RSS (MiB)";
    for (const double peak : untraced.windowPeakRssMb)
        std::cerr << ' ' << formatNumber(peak);
    std::cerr << '\n';
    std::uint64_t attempted = untraced.attempted;
    std::uint64_t failed = untraced.failed;
    MetricSet metrics = endToEnd(untraced, setupSeconds);
    if (options.trace) {
        const Pass &traced = outcome.traced;
        attempted += traced.attempted;
        failed += traced.failed;
        MetricSet layers = outcome.layers;
        runLayerProbes(options, tracer, layers);

        // Tracing overhead: traced over untraced, per end-to-end
        // metric (set-up compares the in-process set-up steps).
        MetricSet plain = endToEnd(untraced, untraced.setupSeconds);
        MetricSet spanned = endToEnd(traced, traced.setupSeconds);
        for (const char *name : {"setup_s", "ops_per_s", "op_ms_p50",
                                 "op_ms_p95", "peak_rss_mb"}) {
            const double base = plain.value(name);
            layers.set(std::string("trace_overhead.") + name,
                       base > 0 ? spanned.value(name) / base - 1.0 : 0.0,
                       "ratio");
        }

        const std::string tracePath = options.buildDir + "/out/" +
                                      options.workload + "-seed" +
                                      std::to_string(options.seed) +
                                      ".trace.json";
        std::filesystem::create_directories(options.buildDir + "/out");
        if (!tracer.writeChromeTrace(tracePath))
            outcome.fail("cannot write " + tracePath);
        std::cout << "per-layer ledger, " << options.workload << " seed "
                  << options.seed << " (" << tracer.eventCount()
                  << " spans in " << tracePath << ")\n"
                  << layers.table();
        metrics = layers;
    }
    if (!outcome.correct && failed == 0)
        failed = 1; // a global check (digest, trace file) failed
    std::cout << resultLine(outcome.correct, attempted, failed, metrics)
              << std::endl;
    return 0;
}
