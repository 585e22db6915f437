/**
 * @file
 * campaign-cold: the paper-default Table-1 grid (8 defenses x 5
 * attacks) over a fixed set of machine seeds through
 * sim::Campaign::run.  Replica 0 is seed 1234 and must reproduce
 * BENCH_table1.json cell for cell; the other replicas' seeds come
 * from the workload seed alone.  The set runs as batches of
 * kReplicasPerBatch replicas, each from a cold row-profile cache,
 * cycling until at least one whole cycle is done and the time is up,
 * so a batch run twice must give the same cells.  A CTA cell that ends
 * ESCALATED or SELF-REFERENCE is replayed with its flips recorded and
 * must be one the paper's No Self-Reference theorem leaves open (see
 * theoremGap).
 */

#include <map>
#include <memory>

#include "dram/hammer.hh"
#include "runtime/thread_pool.hh"
#include "sim/scenarios.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace ctamem;

/**
 * Replicas per batch and batches per cycle: 40 machine seeds per
 * workload seed, so the cost of one run's seed set varies little from
 * one workload seed to the next.
 */
constexpr std::uint64_t kReplicasPerBatch = 8;
constexpr std::uint64_t kBatches = 5;

bool
isCta(defense::DefenseKind kind)
{
    return kind == defense::DefenseKind::Cta ||
           kind == defense::DefenseKind::CtaRestricted;
}

/**
 * Batch @p batch: its replicas' Table-1 grids as one attack-major grid
 * over all their configs, the layout Campaign::addGrid gives a
 * multi-seed sweep.
 */
sim::Campaign
replicaBatch(std::uint64_t seed, std::uint64_t batch)
{
    std::vector<sim::MachineConfig> configs;
    for (std::uint64_t r = batch * kReplicasPerBatch;
         r < (batch + 1) * kReplicasPerBatch; ++r) {
        for (sim::MachineConfig config : sim::scenarios::table1Configs()) {
            config.seed = replicaSeed(seed, r);
            configs.push_back(config);
        }
    }
    sim::Campaign campaign;
    campaign.addGrid(configs, sim::scenarios::table1Attacks());
    return campaign;
}

/** A CTA machine that ended ESCALATED or SELF-REFERENCE. */
bool
breached(const sim::CellResult &cell)
{
    const attack::Outcome kind = cell.result.outcome;
    return isCta(cell.cell.config.defense) &&
           (kind == attack::Outcome::Escalated ||
            kind == attack::Outcome::SelfReference);
}

/** Output checks of one batch; returns the failed-cell count. */
std::uint64_t
checkBatch(const std::vector<sim::CellResult> &results,
           const std::map<std::string, GoldenCell> &golden,
           Outcome &outcome)
{
    std::uint64_t failed = 0;
    for (const sim::CellResult &cell : results) {
        if (cell.cell.config.seed != seeds::kMachine)
            continue;
        const std::string diff = goldenMismatch(cell, golden);
        if (!diff.empty()) {
            outcome.fail("seed-1234 cell " + diff);
            ++failed;
        }
    }
    return failed;
}

/**
 * Boot and attack @p cell through the Machine API, recording its
 * flips into @p flips when given.
 */
sim::CellResult
replayCell(sim::Machine &machine, const sim::CampaignCell &cell,
           std::vector<dram::FlipEvent> *flips)
{
    sim::CellResult out;
    out.cell = cell;
    machine.engine().setEventSink(flips);
    out.result = machine.runAttack(cell.attack);
    machine.engine().setEventSink(nullptr);
    out.anvilTriggered =
        machine.anvil() && machine.anvil()->triggered();
    return out;
}

/**
 * Replay the breached CTA cell @p cell with its flips recorded; it
 * must give the same cell, and the theorem must leave it open.
 * Returns false (and fails @p outcome) otherwise.
 */
bool
breachOpen(const sim::CellResult &cell, Outcome &outcome)
{
    std::vector<dram::FlipEvent> flips;
    sim::Machine machine(cell.cell.config);
    const sim::CellResult replay = replayCell(machine, cell.cell, &flips);
    const std::string where = "CTA cell " + cell.cell.label + " seed " +
                              std::to_string(cell.cell.config.seed);
    if (deterministicFields(replay) != deterministicFields(cell)) {
        outcome.fail(where + " differs when replayed");
        return false;
    }
    const std::string gap =
        theoremGap(machine, cell.result.outcome, flips);
    if (!gap.empty()) {
        outcome.fail(where + ": " + gap);
        return false;
    }
    return true;
}

/**
 * One cell with spans around the benchmark's calls into each layer.
 * With @p counters, also harvest the machine's counters; with @p gap,
 * record a CTA machine's flips and set @p gap to theoremGap.
 */
sim::CellResult
tracedCell(const sim::CampaignCell &cell, Tracer &tracer,
           MachineCounters *counters = nullptr, std::string *gap = nullptr)
{
    const bool cta = isCta(cell.config.defense);
    const bool check = gap && cta;
    std::vector<dram::FlipEvent> flips;
    const Clock::time_point start = Clock::now();
    sim::Machine machine(cell.config);
    const Clock::time_point booted = Clock::now();
    tracer.record(cta ? "sim.boot.cta" : "sim.boot.base", "sim", start,
                  booted);

    sim::CellResult out =
        replayCell(machine, cell, check ? &flips : nullptr);
    const Clock::time_point attacked = Clock::now();
    out.wallSeconds = secondsBetween(start, attacked);
    tracer.record(std::string("attack.run.") +
                      sim::attackToken(cell.attack),
                  "attack", booted, attacked);

    if (check) {
        *gap = theoremGap(machine, out.result.outcome, flips);
        tracer.record("cta.audit", "cta", attacked, Clock::now());
    }
    if (counters)
        counters->harvest(machine);
    return out;
}

/** Digest of one batch's deterministic cell fields. */
std::string
batchDigest(const std::vector<sim::CellResult> &cells)
{
    Digest digest;
    for (const sim::CellResult &cell : cells)
        digest.add(deterministicFields(cell));
    return digest.hex();
}

} // namespace

void
MachineCounters::harvest(sim::Machine &machine)
{
    StatGroup &engine = machine.engine().stats();
    passes = engine.value("passes");
    suppressed = engine.value("suppressedPasses");
    flips = engine.value("flips10") + engine.value("flips01");
    mitigations =
        machine.observer() ? machine.observer()->mitigations() : 0;
    kernel::Kernel &kernel = machine.kernel();
    pageFaults = kernel.stats().value("pageFaults");
    pteAllocs = kernel.stats().value("pteAllocs");
    allocs = kernel.phys().stats().value("allocs");
    fallbacks = kernel.phys().stats().value("fallbacks");
    frames = machine.dram().store().frameCount();
    walks = kernel.mmu().walker().stats().value("walks");
    tlbHits = kernel.mmu().tlb().stats().value("hits");
    tlbMisses = kernel.mmu().tlb().stats().value("misses");
}

void
MachineCounters::operator+=(const MachineCounters &o)
{
    passes += o.passes;
    suppressed += o.suppressed;
    flips += o.flips;
    mitigations += o.mitigations;
    pageFaults += o.pageFaults;
    pteAllocs += o.pteAllocs;
    allocs += o.allocs;
    fallbacks += o.fallbacks;
    frames += o.frames;
    walks += o.walks;
    tlbHits += o.tlbHits;
    tlbMisses += o.tlbMisses;
}

ProfileCacheDelta::ProfileCacheDelta()
{
    const dram::ProfileCacheStats stats = dram::profileCacheStats();
    hits_ = stats.hits;
    misses_ = stats.misses;
}

void
ProfileCacheDelta::addTo(MetricSet &layers) const
{
    const dram::ProfileCacheStats stats = dram::profileCacheStats();
    const double builds = static_cast<double>(stats.misses - misses_);
    const double hits = static_cast<double>(stats.hits - hits_);
    layers.set("dram.profile_builds", builds, "count");
    setRatio(layers, "dram.profile_hit_rate", hits, hits + builds);
}

void
setRatio(MetricSet &layers, const std::string &name, double part,
         double whole)
{
    layers.set(name, whole > 0 ? part / whole : 0.0, "ratio");
}

void
MachineCounters::addTo(MetricSet &layers) const
{
    const auto count = [&](const char *name, std::uint64_t value) {
        layers.set(name, static_cast<double>(value), "count");
    };
    const auto ratio = [&](const char *name, std::uint64_t part,
                           std::uint64_t whole) {
        setRatio(layers, name, static_cast<double>(part),
                 static_cast<double>(whole));
    };
    count("dram.hammer_passes", passes);
    count("dram.flips", flips);
    ratio("dram.suppressed_frac", suppressed, passes);
    count("dram.store_frames", frames);
    count("defense.mitigations", mitigations);
    count("kernel.page_faults", pageFaults);
    count("kernel.pte_allocs", pteAllocs);
    count("mm.allocs", allocs);
    count("mm.fallbacks", fallbacks);
    count("paging.walks", walks);
    ratio("paging.tlb_hit_rate", tlbHits, tlbHits + tlbMisses);
}

Outcome
runCampaignCold(const Options &options, Tracer &tracer)
{
    Outcome outcome;
    const Clock::time_point setupStart = Clock::now();
    std::map<std::string, GoldenCell> golden =
        loadGolden(options.root + "/BENCH_table1.json");
    auto pool = std::make_unique<runtime::ThreadPool>(kWorkers);
    std::vector<sim::Campaign> batches;
    for (std::uint64_t b = 0; b < kBatches; ++b)
        batches.push_back(replicaBatch(options.seed, b));
    outcome.untraced.setupSeconds = secondsSince(setupStart);
    if (options.setupOnly) {
        markFirstOperation();
        return outcome;
    }

    // Untraced pass: the batches in turn, each from a cold row-profile
    // cache, until a whole cycle is done and the time is up.
    Pass &pass = outcome.untraced;
    std::vector<std::string> digests(kBatches);
    std::vector<sim::CellResult> breaches;
    double batchSeconds = 0.0;
    markFirstOperation();
    const Clock::time_point start = Clock::now();
    for (; pass.units < kBatches || secondsSince(start) < options.seconds;
         ++pass.units) {
        const std::uint64_t b = pass.units % kBatches;
        emptyProfileCache();
        const ProfileCacheDelta profiles;
        resetPeakRss();
        const sim::CampaignReport report = batches[b].run(*pool);
        pass.windowPeakRssMb.push_back(peakRssMb());
        if (pass.units == 0)
            profiles.addTo(outcome.layers); // one cold batch's builds
        batchSeconds += report.wallSeconds;
        for (const sim::CellResult &cell : report.cells) {
            pass.opSeconds.push_back(cell.wallSeconds);
            pass.busySeconds += cell.wallSeconds;
        }
        pass.attempted += report.cells.size();
        pass.failed += checkBatch(report.cells, golden, outcome);
        const std::string digest = batchDigest(report.cells);
        if (digests[b].empty()) {
            digests[b] = digest;
            for (const sim::CellResult &cell : report.cells) {
                if (breached(cell))
                    breaches.push_back(cell);
            }
        } else if (digest != digests[b]) {
            outcome.fail("batch " + std::to_string(b) + " gave digest " +
                         digest + " on a repeat, " + digests[b] +
                         " before");
            ++pass.failed;
        }
    }
    pass.wallSeconds = secondsSince(start);
    // Batches hold different seeds, so the pass's rate is one window.
    pass.windowRates.push_back(pass.opSeconds.size() / batchSeconds);
    Digest digest;
    for (const std::string &text : digests)
        digest.add(text);
    pass.digest = digest.hex();
    // Outside the timings: replay the breached CTA cells of the cycle.
    for (const sim::CellResult &cell : breaches)
        pass.failed += breachOpen(cell, outcome) ? 0 : 1;
    if (!options.trace)
        return outcome;

    setRatio(outcome.layers, "runtime.pool_util", pass.busySeconds,
             pass.wallSeconds * kWorkers);

    // Traced pass: the same set-up and batches, each cell built and
    // attacked through the Machine API so every layer call gets its
    // own span.
    pool.reset();
    batches.clear();
    Pass &traced = outcome.traced;
    const Clock::time_point tracedSetup = Clock::now();
    golden = loadGolden(options.root + "/BENCH_table1.json");
    pool = std::make_unique<runtime::ThreadPool>(kWorkers);
    std::vector<std::vector<sim::CampaignCell>> cells;
    for (std::uint64_t b = 0; b < kBatches; ++b)
        cells.push_back(replicaBatch(options.seed, b).cells());
    traced.setupSeconds = secondsSince(tracedSetup);
    tracer.record("campaign.setup", "sim", tracedSetup, Clock::now());
    std::vector<sim::CellResult> results;
    batchSeconds = 0.0;
    const Clock::time_point tracedStart = Clock::now();
    for (; traced.units < pass.units; ++traced.units) {
        const std::uint64_t b = traced.units % kBatches;
        const std::vector<sim::CampaignCell> &batch = cells[b];
        results.assign(batch.size(), sim::CellResult{});
        emptyProfileCache();
        resetPeakRss();
        const Clock::time_point batchStart = Clock::now();
        pool->parallelFor(0, batch.size(), [&](std::uint64_t i) {
            results[i] = tracedCell(batch[i], tracer);
        });
        batchSeconds += secondsSince(batchStart);
        traced.windowPeakRssMb.push_back(peakRssMb());
        for (const sim::CellResult &cell : results) {
            traced.opSeconds.push_back(cell.wallSeconds);
            traced.busySeconds += cell.wallSeconds;
        }
        traced.attempted += batch.size();
        if (batchDigest(results) != digests[b]) {
            outcome.fail("traced batch " + std::to_string(b) +
                         " differs from the untraced one");
            ++traced.failed;
        }
    }
    traced.wallSeconds = secondsSince(tracedStart);
    traced.windowRates.push_back(traced.opSeconds.size() / batchSeconds);

    // One more cycle, outside the traced timings: check the theorem on
    // every CTA machine after its attack and harvest every machine's
    // counters.
    MachineCounters total;
    for (std::uint64_t b = 0; b < kBatches; ++b) {
        const std::vector<sim::CampaignCell> &batch = cells[b];
        results.assign(batch.size(), sim::CellResult{});
        std::vector<MachineCounters> counters(batch.size());
        std::vector<std::string> gaps(batch.size());
        emptyProfileCache();
        pool->parallelFor(0, batch.size(), [&](std::uint64_t i) {
            results[i] =
                tracedCell(batch[i], tracer, &counters[i], &gaps[i]);
        });
        for (std::size_t i = 0; i < batch.size(); ++i) {
            total += counters[i];
            if (!gaps[i].empty()) {
                outcome.fail("theorem fails after " + batch[i].label +
                             " seed " +
                             std::to_string(batch[i].config.seed) +
                             ": " + gaps[i]);
                ++traced.failed;
            }
        }
        traced.attempted += batch.size();
        if (batchDigest(results) != digests[b])
            outcome.fail("audit batch " + std::to_string(b) +
                         " differs from the untraced one");
    }
    total.addTo(outcome.layers);
    return outcome;
}

} // namespace perfbench
