/**
 * @file
 * The benchmark's four workloads and its layer probes.
 *
 * A workload runs one untraced pass for the requested seconds; in a
 * traced run it then repeats exactly the same work with spans around
 * its calls into each layer, so the two passes' deterministic digests
 * must agree, and it fills the per-layer metrics it can see from its
 * own calls and counters.  Probes (probes.cc) fill the layers expected
 * to move the workload; the rest read zero.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hh"
#include "fuzz/fuzzer.hh"
#include "sim/machine.hh"

namespace perfbench {

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Stop right before the first timed operation. */
    bool setupOnly = false;
    std::string root = ".";     //!< checkout root
    std::string buildDir = "."; //!< scratch + ctamemd location
    Clock::time_point processStart = Clock::now();
};

/** Pool width and in-flight bound of every workload (4 cores). */
inline constexpr unsigned kWorkers = 4;

/** Minimum operations per pass: p95 needs 10 samples beyond it. */
inline constexpr std::size_t kMinOps = 200;

/** One measured pass of a workload. */
struct Pass
{
    double setupSeconds = 0.0; //!< pass start -> first operation
    double wallSeconds = 0.0;  //!< first operation -> last result
    std::vector<double> opSeconds; //!< host latency of each operation
    /** Operations per second of each window (batch, search, pass or
     *  block of requests); ops_per_s is their median. */
    std::vector<double> windowRates;
    double busySeconds = 0.0;  //!< sum of worker time over operations
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t units = 0;   //!< replicas / requests / searches / passes
    std::string digest;        //!< over deterministic outputs only
    /** Peak RSS of each window, in MiB; peak_rss_mb is their median. */
    std::vector<double> windowPeakRssMb;
};

/** What a workload hands back to main(). */
struct Outcome
{
    Pass untraced;
    Pass traced;     //!< traced runs only
    bool correct = true;
    std::vector<std::string> errors;
    /** Per-layer metrics the workload measured itself. */
    MetricSet layers;

    void
    fail(const std::string &message)
    {
        correct = false;
        if (errors.size() < 20)
            errors.push_back(message);
    }
};

/** Delta of the process-wide row-profile cache counters. */
class ProfileCacheDelta
{
  public:
    ProfileCacheDelta();
    /** dram.profile_builds and dram.profile_hit_rate since creation. */
    void addTo(MetricSet &layers) const;

  private:
    std::uint64_t hits_;
    std::uint64_t misses_;
};

/** The ratio metric @p part / @p whole, 0 when @p whole is 0. */
void setRatio(MetricSet &layers, const std::string &name, double part,
              double whole);

/** Layer counters of one machine the benchmark built itself. */
struct MachineCounters
{
    std::uint64_t passes = 0;
    std::uint64_t suppressed = 0;
    std::uint64_t flips = 0;
    std::uint64_t mitigations = 0;
    std::uint64_t pageFaults = 0;
    std::uint64_t pteAllocs = 0;
    std::uint64_t allocs = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t frames = 0;
    std::uint64_t walks = 0;
    std::uint64_t tlbHits = 0;
    std::uint64_t tlbMisses = 0;

    /** Read the machine's engine/observer/kernel/mm/paging stats. */
    void harvest(ctamem::sim::Machine &machine);
    void operator+=(const MachineCounters &other);
    /** The dram/defense/kernel/mm/paging counter metrics. */
    void addTo(MetricSet &layers) const;
};

/** Time of the first timed operation (setup_s ends here). */
void markFirstOperation();
Clock::time_point firstOperation();

Outcome runCampaignCold(const Options &options, Tracer &tracer);
Outcome runSvcSession(const Options &options, Tracer &tracer);
Outcome runFuzzSearch(const Options &options, Tracer &tracer);
Outcome runPaperTables(const Options &options, Tracer &tracer);

/** @name The fuzz-search target (bench_fuzz's trr arms race) */
/** @{ */
ctamem::fuzz::FuzzTarget armsRaceTarget();
ctamem::fuzz::FuzzParams armsRaceParams(std::uint64_t searchSeed);
/** @} */

/**
 * Replay @p pattern on a benchmark-owned engine + trr sampler and set
 * dram.timed_window_ms and the timed-path counters.
 */
void timedWindowProbe(const ctamem::fuzz::HammeringPattern &pattern,
                      Tracer &tracer, MetricSet &layers);

/**
 * Fill every per-layer metric the workload did not measure itself:
 * from probes on inputs derived from the workload seed where the
 * layer is expected to move this workload, with zero elsewhere.
 */
void runLayerProbes(const Options &options, Tracer &tracer,
                    MetricSet &layers);

/** Path of the ctamemd binary built beside the benchmark binary. */
std::string daemonPath(const Options &options);

/** A fresh directory under the build dir, unique to this process. */
std::string scratchDir(const Options &options, const std::string &tag);
/** Remove a directory tree made by scratchDir. */
void removeTree(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
