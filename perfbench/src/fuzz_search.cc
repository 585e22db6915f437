/**
 * @file
 * fuzz-search: the TRR arms-race pattern search (fuzz::PatternFuzzer
 * on the bench_fuzz target: 64 MiB single bank, pf = 1e-3, defended
 * by a 1-slot / 2-burst trr sampler).  Each search takes its seed
 * from the workload seed; an operation is one candidate evaluation,
 * timed from the moment the search builds its defense observer to the
 * moment it drops it.  Every search must find a bypass, and
 * re-evaluating its best pattern must reproduce its score.
 */

#include <memory>

#include "common/rng.hh"
#include "defense/trr_sampler.hh"
#include "fuzz/fuzzer.hh"
#include "runtime/thread_pool.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace ctamem;

constexpr std::uint64_t kPopulation = 48;
constexpr std::uint64_t kGenerations = 120;

/** Collects per-evaluation latencies from observer lifetimes. */
struct EvalClock
{
    std::mutex mutex;
    std::vector<double> seconds;
};

/**
 * The trr sampler with a stopwatch: PatternFuzzer builds one observer
 * per candidate evaluation and drops it when the evaluation ends.
 */
class TimedTrrObserver : public defense::TrrSamplerObserver
{
  public:
    TimedTrrObserver(EvalClock *clock)
        : defense::TrrSamplerObserver(
              1, 2, deriveSeed(seeds::kMachine, seeds::kTrrSamplerStream)),
          clock_(clock), start_(Clock::now())
    {}

    ~TimedTrrObserver() override
    {
        if (!clock_)
            return;
        const double seconds = secondsSince(start_);
        std::lock_guard<std::mutex> lock(clock_->mutex);
        clock_->seconds.push_back(seconds);
    }

  private:
    EvalClock *clock_;
    Clock::time_point start_;
};

/** The bench_fuzz target; @p clock (may be null) times evaluations. */
fuzz::FuzzTarget
timedTarget(EvalClock *clock)
{
    fuzz::FuzzTarget target;
    target.dram.capacity = 64 * MiB;
    target.dram.rowBytes = 128 * KiB;
    target.dram.banks = 1;
    target.dram.errors.pf = 1e-3;
    target.dram.seed = seeds::kMachine;
    target.bank = 0;
    target.baseRow = 8;
    target.makeObserver = [clock] {
        return std::make_unique<TimedTrrObserver>(clock);
    };
    return target;
}

} // namespace

fuzz::FuzzTarget
armsRaceTarget()
{
    return timedTarget(nullptr);
}

fuzz::FuzzParams
armsRaceParams(std::uint64_t searchSeed)
{
    fuzz::FuzzParams params;
    params.population = kPopulation;
    params.generations = kGenerations;
    params.windows = 1;
    params.seed = searchSeed;
    params.timing.refsPerWindow = 1024;
    params.timing.actsPerInterval = 1300;
    params.builder.arenaRows = 32;
    params.builder.maxEntries = 8;
    params.builder.maxPeriod = 4;
    params.builder.maxSlots = 12;
    return params;
}

namespace {

/** Searches [0, count) or until the time is up (count == 0). */
Pass
searchPass(const Options &options, std::uint64_t count,
           runtime::ThreadPool &pool, Tracer *tracer, Outcome &outcome,
           fuzz::FuzzOutcome &last)
{
    Pass pass;
    EvalClock clock;
    Digest digest;
    const Clock::time_point start = Clock::now();
    std::uint64_t search = 0;
    for (;; ++search) {
        if (count ? search >= count
                  : secondsSince(start) >= options.seconds &&
                        clock.seconds.size() >= kMinOps)
            break;
        const fuzz::FuzzParams params = armsRaceParams(
            inputSeed(options.seed, streams::kFuzz, search));
        fuzz::PatternFuzzer fuzzer(timedTarget(&clock), params);
        resetPeakRss();
        const Clock::time_point searchStart = Clock::now();
        const fuzz::FuzzOutcome result = fuzzer.run(&pool);
        pass.windowRates.push_back(result.patternsEvaluated /
                                   secondsSince(searchStart));
        pass.windowPeakRssMb.push_back(peakRssMb());
        if (tracer)
            tracer->record("fuzz.search", "fuzz", searchStart,
                           Clock::now());
        pass.attempted += result.patternsEvaluated;
        last = result;

        // Output checks, outside the evaluation clock.
        const std::uint64_t replay =
            fuzz::PatternFuzzer(armsRaceTarget(), params)
                .evaluate(result.best);
        if (result.bestFlips == 0) {
            outcome.fail("search " + std::to_string(search) +
                         " found no TRR bypass");
            ++pass.failed;
        } else if (replay != result.bestFlips) {
            outcome.fail("search " + std::to_string(search) +
                         ": evaluate(best) = " + std::to_string(replay) +
                         " != bestFlips " +
                         std::to_string(result.bestFlips));
            ++pass.failed;
        }
        digest.add(result.best.hash());
        digest.add(result.bestFlips);
        digest.add(result.firstBypassGeneration);
    }
    pass.wallSeconds = secondsSince(start);
    pass.units = search;
    pass.opSeconds = std::move(clock.seconds);
    for (const double seconds : pass.opSeconds)
        pass.busySeconds += seconds;
    pass.digest = digest.hex();
    return pass;
}

/** Derive the arena rows' profiles, as bench_fuzz pre-warms. */
void
prewarm()
{
    const fuzz::FuzzParams params = armsRaceParams(1);
    fuzz::PatternFuzzer(armsRaceTarget(), params)
        .evaluate(fuzz::PatternBuilder(params.builder, params.timing)
                      .family("sync"));
}

} // namespace

Outcome
runFuzzSearch(const Options &options, Tracer &tracer)
{
    Outcome outcome;
    const Clock::time_point setupStart = Clock::now();
    runtime::ThreadPool pool(kWorkers);
    prewarm();
    const double setupSeconds = secondsSince(setupStart);
    markFirstOperation();
    if (options.setupOnly)
        return outcome;

    fuzz::FuzzOutcome last;
    const ProfileCacheDelta profiles;
    outcome.untraced =
        searchPass(options, 0, pool, nullptr, outcome, last);
    outcome.untraced.setupSeconds = setupSeconds;
    if (!options.trace)
        return outcome;

    const Pass &untraced = outcome.untraced;
    profiles.addTo(outcome.layers);
    setRatio(outcome.layers, "runtime.pool_util", untraced.busySeconds,
             untraced.wallSeconds * kWorkers);

    // Traced pass: the same searches from the same cold start, one
    // span per search.
    emptyProfileCache();
    const Clock::time_point tracedSetup = Clock::now();
    prewarm();
    tracer.record("fuzz.prewarm", "dram", tracedSetup, Clock::now());
    fuzz::FuzzOutcome tracedLast;
    const double tracedSetupSeconds = secondsSince(tracedSetup);
    outcome.traced =
        searchPass(options, untraced.units, pool, &tracer, outcome,
                   tracedLast);
    outcome.traced.setupSeconds = tracedSetupSeconds;
    if (outcome.traced.digest != untraced.digest)
        outcome.fail("traced digest " + outcome.traced.digest +
                     " != untraced digest " + untraced.digest);

    timedWindowProbe(last.best, tracer, outcome.layers);
    outcome.layers.set("fuzz.best_flips",
                       static_cast<double>(last.bestFlips), "count");
    outcome.layers.set(
        "fuzz.first_bypass_gen",
        last.firstBypassGeneration == ~0ULL
            ? -1.0
            : static_cast<double>(last.firstBypassGeneration),
        "generations");
    return outcome;
}

} // namespace perfbench
