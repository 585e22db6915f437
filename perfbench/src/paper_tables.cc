/**
 * @file
 * paper-tables: the Table-4 SPEC2006 and Phoronix suites through
 * sim::runWorkload on unprotected vs CTA machines (256 MiB and 1 GiB),
 * plus the Table-2/3 Monte-Carlo cross-checks through model::runMc
 * with the batched and importance-sampled samplers.  No hammering at
 * all: this is the workload a DRAM-profile change must not move.
 *
 * An operation is one benchmark run on one machine or one MC spec.
 * Checks: every CTA modeled delta within +-1%, no page-table
 * allocation failure, every MC estimate within 5 sigma of its closed
 * form, and the pessimistic Table-3 rates above the Table-2 ones.
 */

#include <cmath>
#include <memory>

#include "model/montecarlo.hh"
#include "model/tables.hh"
#include "runtime/thread_pool.hh"
#include "sim/workload.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace ctamem;

constexpr std::uint64_t kMcTrials = 2'000'000;

/** One Table-4 machine pair: a system size and a suite. */
struct Unit
{
    std::uint64_t memBytes;
    std::uint64_t ptpBytes;
    bool spec; //!< SPEC2006, else Phoronix
};

const Unit kUnits[] = {
    {256 * MiB, 2 * MiB, true},
    {256 * MiB, 2 * MiB, false},
    {1 * GiB, 8 * MiB, true},
    {1 * GiB, 8 * MiB, false},
};
constexpr std::size_t kUnitCount = sizeof kUnits / sizeof kUnits[0];

/** The MC specs of one pass, in a fixed order. */
struct McJob
{
    model::McSpec spec;
    enum Kind { Table2, Table3Base, Table3Pessimistic, RareEvent } kind;
};

std::vector<McJob>
mcJobs(std::uint64_t seed)
{
    std::vector<McJob> jobs;
    std::uint64_t index = 0;
    for (model::McSpec spec :
         model::mcSweepSpecs(model::makeTable2(), 0.05,
                             model::Sampler::FixedZerosBatched,
                             kMcTrials)) {
        spec.seed = inputSeed(seed, streams::kTables, 1000 + index++);
        jobs.push_back({spec, McJob::Table2});
    }
    for (model::McSpec spec :
         model::mcSweepSpecs(model::makeTable3(), 0.02,
                             model::Sampler::FixedZerosBatched,
                             kMcTrials)) {
        spec.seed = inputSeed(seed, streams::kTables, 1000 + index++);
        jobs.push_back({spec, McJob::Table3Base});
        spec.params.errors.pf = 0.1; // the 5x Pf scaling
        jobs.push_back({spec, McJob::Table3Pessimistic});
    }
    model::McSpec rare; // production probabilities, restricted cell
    rare.sampler = model::Sampler::FixedZerosBatched;
    rare.mode = model::Mode::ImportanceSampled;
    rare.zeros = 2;
    rare.trials = kMcTrials;
    rare.seed = inputSeed(seed, streams::kTables, 1000 + index++);
    jobs.push_back({rare, McJob::RareEvent});
    return jobs;
}

/** Deterministic results and timings of one pass. */
struct PassResult
{
    std::vector<std::vector<double>> unitOps;  //!< per unit, per run
    std::vector<std::string> unitDigest;
    std::vector<MachineCounters> unitCounters;
    std::vector<model::McEstimate> mc;
    std::vector<double> mcSeconds;
};

/** Run one Table-4 unit; returns its check failures. */
std::uint64_t
runUnit(const Unit &unit, std::uint64_t machineSeed,
        std::uint64_t workloadSeed, Tracer *tracer,
        std::vector<double> &ops, std::string &digestText,
        MachineCounters &counters, std::vector<std::string> &errors)
{
    sim::MachineConfig base;
    base.memBytes = unit.memBytes;
    base.ptpBytes = unit.ptpBytes;
    base.seed = machineSeed;
    base.defense = defense::DefenseKind::None;
    sim::MachineConfig prot = base;
    prot.defense = defense::DefenseKind::Cta;
    sim::Machine none(base);
    sim::Machine cta(prot);

    std::uint64_t failures = 0;
    Digest digest;
    const std::vector<sim::WorkloadSpec> specs =
        unit.spec ? sim::spec2006Suite() : sim::phoronixSuite();
    for (const sim::WorkloadSpec &spec : specs) {
        sim::WorkloadMetrics metrics[2];
        sim::Machine *machines[2] = {&none, &cta};
        for (int m = 0; m < 2; ++m) {
            const Clock::time_point start = Clock::now();
            metrics[m] =
                sim::runWorkload(machines[m]->kernel(), spec, workloadSeed);
            const Clock::time_point end = Clock::now();
            ops.push_back(secondsBetween(start, end));
            if (tracer)
                tracer->recordAggregate(m ? "kernel.touch.cta"
                                          : "kernel.touch.none",
                                        "kernel", start, end,
                                        metrics[m].touches);
            const sim::WorkloadMetrics &w = metrics[m];
            for (const std::uint64_t v :
                 {w.touches, w.pageFaults, w.pteAllocs, w.tlbMisses,
                  w.walks, w.mmapCalls, w.oomEvents, w.peakTableBytes})
                digest.add(v);
            digest.add(formatNumber(w.modeledSeconds));
        }
        const double delta =
            metrics[0].score() > 0
                ? (metrics[1].score() - metrics[0].score()) /
                      metrics[0].score() * 100.0
                : 0.0;
        if (std::abs(delta) > 1.0) {
            errors.push_back(spec.name + ": CTA modeled delta " +
                             formatNumber(delta) + "%");
            ++failures;
        }
    }
    const std::uint64_t allocFailures =
        cta.kernel().stats().value("pteAllocFailures");
    if (allocFailures != 0) {
        errors.push_back(std::to_string(allocFailures) +
                         " page-table allocation failures");
        ++failures;
    }
    counters.harvest(none);
    MachineCounters second;
    second.harvest(cta);
    counters += second;
    digestText = digest.hex();
    return failures;
}

/** Check the MC estimates of one pass; returns the failure count. */
std::uint64_t
checkMc(const std::vector<McJob> &jobs,
        const std::vector<model::McEstimate> &mc,
        std::vector<std::string> &errors)
{
    std::uint64_t failures = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const McJob &job = jobs[i];
        const model::McEstimate &est = mc[i];
        bool ok = true;
        if (job.kind == McJob::Table2 || job.kind == McJob::RareEvent) {
            const double exact = model::pExploitableExactZeros(
                job.spec.params, job.spec.zeros);
            ok = est.mean > 0.0 &&
                 std::abs(est.mean - exact) <= 5 * est.stderr;
        } else if (job.kind == McJob::Table3Pessimistic) {
            ok = est.mean > mc[i - 1].mean; // scaling raises the cell
        }
        if (!ok) {
            errors.push_back("MC spec " + std::to_string(i) +
                             " estimate " + formatNumber(est.mean) +
                             " fails its closed-form check");
            ++failures;
        }
    }
    return failures;
}

/** Whole passes until the time is up, or exactly @p count passes. */
Pass
tablesPass(const Options &options, std::uint64_t count,
           runtime::ThreadPool &pool, Tracer *tracer, Outcome &outcome,
           MachineCounters *counters, double &essOut)
{
    Pass pass;
    Digest digest;
    const Clock::time_point start = Clock::now();
    std::uint64_t passes = 0;
    for (;; ++passes) {
        if (count ? passes >= count
                  : secondsSince(start) >= options.seconds &&
                        pass.opSeconds.size() >= kMinOps)
            break;
        resetPeakRss();
        const Clock::time_point passStart = Clock::now();
        const std::size_t opsBefore = pass.opSeconds.size();
        const std::vector<McJob> jobs = mcJobs(inputSeed(
            options.seed, streams::kTables, passes));
        PassResult result;
        result.unitOps.resize(kUnitCount);
        result.unitDigest.resize(kUnitCount);
        result.unitCounters.resize(kUnitCount);
        result.mc.resize(jobs.size());
        result.mcSeconds.resize(jobs.size());
        std::vector<std::vector<std::string>> errors(kUnitCount);
        std::vector<std::uint64_t> failures(kUnitCount, 0);

        pool.parallelFor(0, kUnitCount + jobs.size(), [&](std::uint64_t i) {
            if (i < kUnitCount) {
                const std::uint64_t tag = passes * kUnitCount + i;
                failures[i] = runUnit(
                    kUnits[i],
                    inputSeed(options.seed, streams::kTables, 2 * tag),
                    inputSeed(options.seed, streams::kTables, 2 * tag + 1),
                    tracer, result.unitOps[i], result.unitDigest[i],
                    result.unitCounters[i], errors[i]);
                return;
            }
            const std::size_t j = i - kUnitCount;
            const Clock::time_point t0 = Clock::now();
            result.mc[j] = model::runMc(jobs[j].spec);
            const Clock::time_point t1 = Clock::now();
            result.mcSeconds[j] = secondsBetween(t0, t1);
            if (tracer)
                tracer->recordAggregate(
                    jobs[j].kind == McJob::RareEvent ? "model.mc.is"
                                                     : "model.mc.batched",
                    "model", t0, t1, jobs[j].spec.trials);
        }, /*grain=*/1);

        std::vector<std::string> mcErrors;
        const std::uint64_t mcFailures =
            checkMc(jobs, result.mc, mcErrors);
        pass.failed += mcFailures;
        for (const std::string &error : mcErrors)
            outcome.fail(error);
        for (std::size_t u = 0; u < kUnitCount; ++u) {
            for (const double seconds : result.unitOps[u]) {
                pass.opSeconds.push_back(seconds);
                pass.busySeconds += seconds;
            }
            pass.attempted += result.unitOps[u].size();
            pass.failed += failures[u];
            for (const std::string &error : errors[u])
                outcome.fail(error);
            digest.add(result.unitDigest[u]);
            if (counters)
                *counters += result.unitCounters[u];
        }
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            pass.opSeconds.push_back(result.mcSeconds[j]);
            pass.busySeconds += result.mcSeconds[j];
            digest.add(formatNumber(result.mc[j].mean));
            digest.add(formatNumber(result.mc[j].stderr));
            if (jobs[j].kind == McJob::RareEvent)
                essOut = result.mc[j].ess;
        }
        pass.attempted += jobs.size();
        pass.windowRates.push_back(
            static_cast<double>(pass.opSeconds.size() - opsBefore) /
            secondsSince(passStart));
        pass.windowPeakRssMb.push_back(peakRssMb());
    }
    pass.wallSeconds = secondsSince(start);
    pass.units = passes;
    pass.digest = digest.hex();
    return pass;
}

} // namespace

Outcome
runPaperTables(const Options &options, Tracer &tracer)
{
    Outcome outcome;
    const Clock::time_point setupStart = Clock::now();
    auto pool = std::make_unique<runtime::ThreadPool>(kWorkers);
    const double setupSeconds = secondsSince(setupStart);
    markFirstOperation();
    if (options.setupOnly)
        return outcome;

    MachineCounters counters;
    double ess = 0.0;
    const ProfileCacheDelta profiles;
    outcome.untraced = tablesPass(options, 0, *pool, nullptr, outcome,
                                  &counters, ess);
    outcome.untraced.setupSeconds = setupSeconds;
    if (!options.trace)
        return outcome;

    const Pass &untraced = outcome.untraced;
    profiles.addTo(outcome.layers);
    setRatio(outcome.layers, "runtime.pool_util", untraced.busySeconds,
             untraced.wallSeconds * kWorkers);

    // The traced pass repeats the set-up on a fresh pool (the old
    // workers' malloc arenas go back to the new ones).
    pool.reset();
    const Clock::time_point tracedSetup = Clock::now();
    pool = std::make_unique<runtime::ThreadPool>(kWorkers);
    const double tracedSetupSeconds = secondsSince(tracedSetup);
    tracer.record("tables.setup", "runtime", tracedSetup, Clock::now());
    outcome.traced =
        tablesPass(options, untraced.units, *pool, &tracer, outcome,
                   nullptr, ess);
    outcome.traced.setupSeconds = tracedSetupSeconds;
    if (outcome.traced.digest != untraced.digest)
        outcome.fail("traced digest " + outcome.traced.digest +
                     " != untraced digest " + untraced.digest);

    counters.addTo(outcome.layers);
    outcome.layers.set("model.mc_ess", ess, "trials");
    return outcome;
}

} // namespace perfbench
