/**
 * @file
 * Helpers shared by the benchmark's workloads: clocks, seed
 * derivation, the percentile rule, the deterministic-field digest,
 * the CTA theorem check, the in-memory span recorder with its Chrome
 * trace-event writer, and the one-line JSON result.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hh"
#include "dram/hammer.hh"
#include "sim/campaign.hh"
#include "sim/machine.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point start, Clock::time_point end);
double secondsSince(Clock::time_point start);
/** @p start moved @p seconds later. */
Clock::time_point plusSeconds(Clock::time_point start, double seconds);
/** CPU time the calling thread has used; blocking waits add none. */
double threadCpuSeconds();

/** @name Seed derivation
 *
 * Every input of a workload is a pure function of the workload seed:
 * input i of stream s is inputSeed(seed, s, i).  Streams keep the
 * workloads (and the probes) from sharing inputs by accident.
 */
/** @{ */
namespace streams {
inline constexpr std::uint64_t kCampaign = 0xca3b;
inline constexpr std::uint64_t kSvc = 0x5e7c;
inline constexpr std::uint64_t kFuzz = 0xf5e4;
inline constexpr std::uint64_t kTables = 0x7ab1;
inline constexpr std::uint64_t kProbe = 0x9b0e;
} // namespace streams

std::uint64_t inputSeed(std::uint64_t seed, std::uint64_t stream,
                        std::uint64_t index);

/**
 * Machine seed of campaign replica @p replica: replica 0 is the
 * paper's seed 1234 (the BENCH_table1.json grid), the rest derive
 * from the workload seed.
 */
std::uint64_t replicaSeed(std::uint64_t seed, std::uint64_t replica);
/** @} */

/** @name Percentiles
 *
 * A timing is reported as its median plus the highest percentile
 * that has at least kTailSupport samples beyond it.  Percentiles are
 * nearest-rank: the p-th percentile of n sorted samples is the one
 * at rank ceil(p * n / 100).
 */
/** @{ */
inline constexpr std::size_t kTailSupport = 10;

/** Samples ranked strictly above the @p pct percentile of @p n. */
std::size_t samplesBeyond(std::size_t n, double pct);

/** Nearest-rank percentile; 0 for an empty sample. */
double percentile(std::vector<double> values, double pct);

double median(std::vector<double> values);
/** @} */

/** @name Deterministic-field digest */
/** @{ */
/** FNV-1a over a sequence of byte strings. */
class Digest
{
  public:
    void add(std::string_view bytes);
    void add(std::uint64_t value);
    std::uint64_t value() const { return hash_; }
    std::string hex() const;

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/**
 * Canonical text of a cell result's deterministic fields: its JSON
 * form with the host wall time cleared.  Two runs of one cell agree
 * on this text at any pool width, cold or replayed from a cache.
 */
std::string deterministicFields(const ctamem::sim::CellResult &cell);
/** @} */

/** @name Table-1 golden (BENCH_table1.json) */
/** @{ */
struct GoldenCell
{
    std::string outcome; //!< outcome name, "*" when ANVIL alarmed
    std::uint64_t flips = 0;
    std::uint64_t passes = 0;
};

/** "<attack>__<defense>" -> cell, as bench_table1 writes them. */
std::map<std::string, GoldenCell> loadGolden(const std::string &path);
std::string goldenKey(const ctamem::sim::CampaignCell &cell);
/** Empty when @p cell matches @p golden, else what differs. */
std::string goldenMismatch(const ctamem::sim::CellResult &cell,
                           const std::map<std::string, GoldenCell> &golden);
/** @} */

/** @name CTA theorem check */
/** @{ */
/**
 * The paper's No Self-Reference theorem on a CTA machine after its
 * attack, given every flip the attack made.  The theorem covers leaf
 * pointers that only lose bits.  The paper's own analysis leaves two
 * ways open, and at the Table-1 machines' boosted Pf some seeds take
 * one: a true cell's rare '0'->'1' flip in a leaf pointer (the P01
 * term of the Section 5 model, which prices exploitable PTEs in true
 * cells too), and a flip in an intermediate entry, which with one zone
 * for every paging level can land on a table of another level (what
 * Section 7's per-level zones rule out).  Returns what breaks the
 * theorem, or "" when nothing does: every page table is still in the
 * true-cell zone above the low water mark, and a leaf pointer at or
 * above the mark, or an ESCALATED or SELF-REFERENCE outcome, comes
 * with a flip of one of those two kinds.
 */
std::string theoremGap(ctamem::sim::Machine &machine,
                       ctamem::attack::Outcome outcome,
                       const std::vector<ctamem::dram::FlipEvent> &flips);
/** @} */

/** @name svc-session request stream
 *
 * A pure function of the seed.  Nine requests in ten repeat a cell
 * asked for before, drawn uniformly from the kRepeatWindow most
 * recent distinct cells; every tenth is a new Table-1 (defense,
 * attack) cell, walked in a seeded order over a slowly growing list
 * of machine seeds (the first is 1234), so a new cell either boots
 * its config cold or finds its config's snapshot.
 *
 * Since a cell was first asked for, at most 2 * kRepeatWindow - 2
 * other cells have been: the ones within kRepeatWindow of it in
 * first-request order.  An LRU result cache of at least that many
 * entries (ctamemd keeps 1024 in memory) therefore answers every
 * repeat from memory, however long the session runs.
 */
/** @{ */
class RequestStream
{
  public:
    static constexpr std::uint64_t kNewCellEvery = 10;
    static constexpr std::size_t kRepeatWindow = 512;

    explicit RequestStream(std::uint64_t seed);

    /** Index into cells() of the next request's cell. */
    std::size_t next();

    /** Distinct cells requested so far, in first-request order. */
    const std::vector<ctamem::sim::CampaignCell> &cells() const
    {
        return cells_;
    }

  private:
    std::uint64_t seed_;
    ctamem::Rng rng_;
    std::vector<ctamem::sim::CampaignCell> grid_; //!< current seed's
    std::vector<std::size_t> order_;
    std::size_t nextInSeed_ = 0;
    std::uint64_t machineSeeds_ = 0;
    std::uint64_t requests_ = 0;
    std::vector<ctamem::sim::CampaignCell> cells_;
};
/** @} */

/** Empty the process-wide row-profile cache (a cold start). */
void emptyProfileCache();

/** @name Spans
 *
 * The traced run keeps every span in memory and writes them once at
 * exit as Chrome trace-event JSON.  Calls too short to time one by
 * one are recorded as one aggregate span carrying a call count; their
 * per-call sample is the span's duration divided by the count.
 */
/** @{ */
class Tracer
{
  public:
    Tracer();

    /** One timed call of @p name in layer @p layer. */
    void record(const std::string &name, const char *layer,
                Clock::time_point start, Clock::time_point end);

    /** @p calls back-to-back calls timed as one span. */
    void recordAggregate(const std::string &name, const char *layer,
                         Clock::time_point start,
                         Clock::time_point end, std::uint64_t calls);

    /** Per-call durations of @p name in seconds (empty if none). */
    std::vector<double> samples(const std::string &name) const;
    bool has(const std::string &name) const;

    std::size_t eventCount() const;

    /** The Chrome trace-event document. */
    std::string chromeTrace() const;
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Event
    {
        std::string name;
        const char *layer;
        std::uint32_t tid;
        double startUs;
        double durUs;
        std::uint64_t calls; //!< 0 for a plain span
    };

    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Event> events_;
    std::map<std::string, std::vector<double>> samples_;
};

/** Small dense id of the calling thread (trace "tid"). */
std::uint32_t threadIndex();
/** @} */

/** @name Result line */
/** @{ */
/** Metrics in insertion order, printed with every digit. */
class MetricSet
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    bool has(const std::string &name) const;
    double value(const std::string &name) const;
    std::string toJson() const;
    /** Aligned "name value unit" lines, for humans. */
    std::string table() const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/** Shortest text that reads back as exactly @p value. */
std::string formatNumber(double value);

std::string resultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const MetricSet &metrics);
/** @} */

/** @name Peak RSS of a window
 *
 * Linux keeps one peak-RSS mark per process (VmHWM); writing "5" to
 * its /proc/<pid>/clear_refs lowers the mark to the current RSS.  A
 * workload lowers it when a window starts and reads it when the
 * window ends, and peak_rss_mb is the median window's peak, so one
 * rare memory-hungry operation does not set the run's figure.  Where
 * the mark cannot be lowered, a window's peak is the peak so far.
 */
/** @{ */
/** Lower process @p pid's peak-RSS mark (0: this process). */
void resetPeakRss(int pid = 0);
/** Process @p pid's peak RSS since the last reset, in MiB. */
double peakRssMb(int pid = 0);
/** @} */

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
