/**
 * @file
 * Tests for the REF-interval timed hammer path and the pattern-fuzzing
 * subsystem: timed DisturbanceEvent coordinates, tREFI-boundary
 * pressure reset, the interval activation budget, the per-bank
 * pressure table's edge cases, the TRR-sampler arms-race acceptance
 * property (uniform suppressed, evolved pattern flips cells),
 * thread-count determinism of the evolutionary search, pinned search
 * outcomes, search work and flip-event streams, victim-only evaluation
 * priming, and the manifest plumbing of the fuzz block.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "defense/trr_sampler.hh"
#include "dram/hammer.hh"
#include "dram/module.hh"
#include "fuzz/fuzzer.hh"
#include "fuzz/pattern.hh"
#include "runtime/thread_pool.hh"
#include "sim/campaign.hh"
#include "sim/machine.hh"
#include "sim/scenario.hh"

namespace ctamem {
namespace {

std::string
repoPath(const std::string &relative)
{
    return std::string(CTAMEM_SOURCE_DIR) + "/" + relative;
}

dram::DramConfig
timedConfig()
{
    dram::DramConfig config;
    config.capacity = 64 * MiB;
    config.rowBytes = 128 * KiB;
    config.banks = 1;
    config.errors.pf = 5e-3; // boosted so victim rows have many flips
    config.seed = 7;
    return config;
}

/** Fill a whole row with one byte value. */
void
fillRow(dram::DramModule &module, std::uint64_t row,
        std::uint8_t value)
{
    std::vector<std::uint8_t> buffer(module.geometry().rowBytes(),
                                     value);
    module.write(row * module.geometry().rowBytes(), buffer.data(),
                 buffer.size());
}

/**
 * Observer that records every DisturbanceEvent it sees, with the
 * tREFI interval it landed in: the number of REFs retired before it.
 */
class CaptureObserver : public dram::DisturbanceObserver
{
  public:
    bool
    onHammer(const dram::DisturbanceEvent &event) override
    {
        events.push_back(event);
        intervals.push_back(refs_);
        return false;
    }

    void
    onRef(std::vector<std::uint64_t> &) override
    {
        ++refs_;
    }

    std::vector<dram::DisturbanceEvent> events;
    std::vector<std::uint64_t> intervals; //!< one per event

  private:
    std::uint64_t refs_ = 0;
};

/** The trr-arms-race manifest cell as an in-process fuzz target. */
fuzz::FuzzTarget
armsRaceTarget()
{
    fuzz::FuzzTarget target;
    target.dram.capacity = 64 * MiB;
    target.dram.rowBytes = 128 * KiB;
    target.dram.banks = 1;
    target.dram.errors.pf = 1e-3;
    target.dram.seed = 1234;
    target.bank = 0;
    target.baseRow = 8;
    target.makeObserver = [] {
        return std::make_unique<defense::TrrSamplerObserver>(
            1, 2, deriveSeed(1234, seeds::kTrrSamplerStream));
    };
    return target;
}

fuzz::FuzzParams
armsRaceParams()
{
    fuzz::FuzzParams params;
    params.population = 12;
    params.generations = 6;
    params.windows = 1;
    params.timing.refsPerWindow = 1024;
    params.timing.actsPerInterval = 1300;
    params.builder.arenaRows = 32;
    params.builder.maxEntries = 8;
    params.builder.maxPeriod = 4;
    params.builder.maxSlots = 12;
    return params;
}

/**
 * Prime every row of the arena [base_row - 1, base_row + arena_rows
 * + 2) flip-ready: each vulnerable cell stores the value its flip
 * direction consumes.  The reference priming the victim-only priming
 * of PatternFuzzer::evaluate must score the same as.
 */
void
primeWholeArena(dram::RowHammerEngine &engine, std::uint64_t bank,
                std::uint64_t base_row, std::uint64_t arena_rows)
{
    dram::DramModule &module = engine.module();
    const std::uint64_t rows = module.geometry().rowsPerBank();
    const std::uint64_t first = base_row > 0 ? base_row - 1 : 0;
    const std::uint64_t last =
        std::min(rows, base_row + arena_rows + 2);
    for (std::uint64_t row = first; row < last; ++row) {
        const dram::RowVulnProfile &profile =
            engine.rowProfile(bank, module.deviceRow(bank, row));
        profile.forEachWord([&](std::uint32_t word, std::uint64_t,
                                std::uint64_t dir10) {
            module.writeU64(profile.base + word * 8ULL, dir10);
        });
    }
}

/** Score @p pattern on a fully primed replica of @p target. */
std::uint64_t
wholeArenaScore(const fuzz::FuzzTarget &target,
                const fuzz::FuzzParams &params,
                const fuzz::HammeringPattern &pattern)
{
    dram::DramModule module(target.dram);
    std::unique_ptr<dram::DisturbanceObserver> observer;
    if (target.makeObserver)
        observer = target.makeObserver();
    dram::RowHammerEngine engine(module, observer.get());
    engine.setRefTiming(params.timing);
    primeWholeArena(engine, target.bank, target.baseRow,
                    params.builder.arenaRows);
    return fuzz::runPattern(engine, pattern,
                            {target.bank, target.baseRow,
                             params.windows})
        .total();
}

/** The four seed families, then @p randoms builder patterns. */
std::vector<fuzz::HammeringPattern>
familiesThenRandom(const fuzz::FuzzParams &params, std::uint64_t seed,
                   std::uint64_t randoms)
{
    const fuzz::PatternBuilder builder(params.builder, params.timing);
    std::vector<fuzz::HammeringPattern> patterns;
    for (const std::string &name : fuzz::patternFamilies())
        patterns.push_back(builder.family(name));
    for (std::uint64_t i = 0; i < randoms; ++i) {
        Rng rng(deriveSeed(seed, i));
        patterns.push_back(builder.random(rng));
    }
    return patterns;
}

/** FNV-1a over the ordered (addr, bit, dir) flip events. */
std::uint64_t
flipDigest(const std::vector<dram::FlipEvent> &events)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (value >> (8 * byte)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const dram::FlipEvent &event : events) {
        mix(event.addr);
        mix(event.bit);
        mix(static_cast<std::uint64_t>(event.dir));
    }
    return h;
}

/** Target-refreshes a fixed row list on every REF. */
class FixedTrrObserver : public dram::DisturbanceObserver
{
  public:
    explicit FixedTrrObserver(std::vector<std::uint64_t> rows)
        : rows_(std::move(rows))
    {}

    bool
    onHammer(const dram::DisturbanceEvent &) override
    {
        return false;
    }

    void
    onRef(std::vector<std::uint64_t> &refresh_rows) override
    {
        refresh_rows.insert(refresh_rows.end(), rows_.begin(),
                            rows_.end());
    }

  private:
    std::vector<std::uint64_t> rows_;
};

/** Small two-bank module with dense vulnerable cells. */
dram::DramConfig
twoBankConfig()
{
    dram::DramConfig config;
    config.capacity = 4 * MiB;
    config.rowBytes = 16 * KiB;
    config.banks = 2;
    config.errors.pf = 1e-2;
    config.seed = 0x2ba4c;
    return config;
}

TEST(TimedHammer, EventsCarryRefClockCoordinates)
{
    dram::DramModule module(timedConfig());
    CaptureObserver observer;
    dram::RowHammerEngine engine(module, &observer);
    engine.setRefTiming({8, 64});

    dram::HammerResult result;
    engine.activate(0, 5, 10, 3, result);
    ASSERT_EQ(observer.events.size(), 1u);
    EXPECT_EQ(observer.intervals[0], 0u);
    EXPECT_EQ(observer.events[0].phase, 3u);
    EXPECT_EQ(observer.events[0].aggressorRow, 5u);
    EXPECT_EQ(observer.events[0].activations, 10u);

    // The interval index advances with retired REFs.
    engine.refTick(0, result);
    engine.refTick(0, result);
    engine.activate(0, 5, 10, 0, result);
    ASSERT_EQ(observer.events.size(), 2u);
    EXPECT_EQ(observer.intervals[1], 2u);

    // A saturated window's burst leads its interval.
    engine.hammerRow(0, 5);
    ASSERT_GE(observer.events.size(), 3u);
    EXPECT_EQ(observer.events.back().phase, 0u);
}

TEST(TimedHammer, RefreshSlotResetsAccumulatedPressure)
{
    // The same total activation dose, delivered (a) inside one
    // refresh window and (b) split across the victim's refresh slot,
    // must disturb differently: the intervening refresh restores full
    // charge, so each half evaluates at half intensity.
    const std::uint64_t half =
        dram::RowHammerEngine::activationsPerPass / 4;

    dram::DramModule full_module(timedConfig());
    dram::RowHammerEngine full_engine(full_module);
    full_engine.setRefTiming({4, 2 * half});
    for (std::uint64_t row = 2; row <= 6; ++row)
        fillRow(full_module, row, 0xff);
    dram::HammerResult full;
    full_engine.activate(0, 3, 2 * half, 0, full);
    full_engine.activate(0, 5, 2 * half, 1, full);
    full_engine.drainPressure(0, full);
    EXPECT_GT(full.flips10, 0u);
    EXPECT_EQ(full_engine.pendingPressureRows(), 0u);

    dram::DramModule split_module(timedConfig());
    dram::RowHammerEngine split_engine(split_module);
    split_engine.setRefTiming({4, 2 * half});
    for (std::uint64_t row = 2; row <= 6; ++row)
        fillRow(split_module, row, 0xff);
    dram::HammerResult split;
    split_engine.activate(0, 3, half, 0, split);
    split_engine.activate(0, 5, half, 1, split);
    // Victim row 4 is refreshed by the interval-0 REF (4 % 4 == 0):
    // its half-window pressure is evaluated and cleared there.
    for (int tick = 0; tick < 4; ++tick)
        split_engine.refTick(0, split);
    split_engine.activate(0, 3, half, 0, split);
    split_engine.activate(0, 5, half, 1, split);
    split_engine.drainPressure(0, split);
    EXPECT_EQ(split_engine.pendingPressureRows(), 0u);

    // Same dose, strictly fewer flips: the boundary reset is real.
    EXPECT_LT(split.flips10, full.flips10);
}

TEST(TimedHammer, PatternReplayRespectsIntervalBudget)
{
    dram::DramModule module(timedConfig());
    CaptureObserver observer;
    dram::RowHammerEngine engine(module, &observer);
    const dram::RefTiming timing{16, 100};
    engine.setRefTiming(timing);

    // Three pairs asking for 100 activations per aggressor would
    // consume 600 per interval — six times the budget.
    fuzz::HammeringPattern pattern;
    pattern.periodIntervals = 1;
    for (std::uint64_t entry = 0; entry < 3; ++entry)
        pattern.entries.push_back(
            {2 + 4 * entry, 2, 1, 0, entry, 100});

    fuzz::runPattern(engine, pattern, {0, 8, 1});

    std::map<std::uint64_t, std::uint64_t> perInterval;
    for (std::size_t i = 0; i < observer.events.size(); ++i) {
        perInterval[observer.intervals[i]] +=
            observer.events[i].activations;
    }
    ASSERT_FALSE(perInterval.empty());
    for (const auto &[interval, activations] : perInterval)
        EXPECT_LE(activations, timing.actsPerInterval)
            << "interval " << interval << " over budget";
}

TEST(TrrSampler, UniformHammerIsReliablySuppressed)
{
    sim::MachineConfig config;
    config.memBytes = 64 * MiB;
    config.defense = defense::DefenseKind::TrrSampler;
    config.trrSamplers = 1;
    config.trrWindow = 2;
    config.fuzz = armsRaceParams();
    sim::Machine machine(config);

    const attack::AttackResult result =
        machine.runAttack(sim::AttackKind::UniformHammer);
    EXPECT_EQ(result.outcome, attack::Outcome::Detected);
    EXPECT_EQ(result.flipsInduced, 0u);
    // The passes are refreshed away by the sampler's own REFs.
    EXPECT_GT(machine.engine().stats().value("trrRefreshes"), 0u);
}

TEST(PatternFuzzer, EvolvesATrrSamplerBypass)
{
    // The arms-race acceptance property: against a sampler that
    // reliably suppresses uniform hammering (previous test), the
    // evolutionary search still finds a pattern flipping >= 1 cell.
    fuzz::PatternFuzzer fuzzer(armsRaceTarget(), armsRaceParams());

    // The fixed REF-synchronized family is sampled (and its sandwich
    // victim target-refreshed) every interval, so it scores at most
    // stray outer-victim flips.  The search must clearly beat it.
    const fuzz::FuzzParams params = armsRaceParams();
    const fuzz::PatternBuilder builder(params.builder, params.timing);
    const std::uint64_t syncFlips =
        fuzzer.evaluate(builder.family("sync"));

    const fuzz::FuzzOutcome outcome = fuzzer.run();
    EXPECT_GE(outcome.bestFlips, 1u);
    EXPECT_GT(outcome.bestFlips, syncFlips);
    EXPECT_NE(outcome.firstBypassGeneration, ~0ULL);
    EXPECT_EQ(outcome.patternsEvaluated,
              params.population * params.generations);

    // The winning pattern replays to the same score.
    EXPECT_EQ(fuzzer.evaluate(outcome.best), outcome.bestFlips);
}

TEST(PatternFuzzer, OutcomeIsIdenticalAtAnyThreadCount)
{
    fuzz::FuzzParams params = armsRaceParams();
    params.population = 8;
    params.generations = 3;

    fuzz::PatternFuzzer serial_fuzzer(armsRaceTarget(), params);
    const fuzz::FuzzOutcome serial = serial_fuzzer.run();

    for (const unsigned threads : {1u, 4u, 8u}) {
        runtime::ThreadPool pool(threads);
        fuzz::PatternFuzzer fuzzer(armsRaceTarget(), params);
        const fuzz::FuzzOutcome outcome = fuzzer.run(&pool);
        EXPECT_EQ(outcome.best.hash(), serial.best.hash())
            << threads << " worker(s)";
        EXPECT_EQ(outcome.bestFlips, serial.bestFlips)
            << threads << " worker(s)";
        EXPECT_EQ(outcome.best, serial.best) << threads
                                             << " worker(s)";
    }
}

TEST(PatternFuzzer, SearchOutcomeIsPinned)
{
    // A fixed search seed gives one search outcome on a fixed fault
    // map; the constants move only when the fault model's draw does.
    fuzz::FuzzParams params = armsRaceParams();
    params.seed = 0x5eed15;
    const fuzz::FuzzOutcome outcome =
        fuzz::PatternFuzzer(armsRaceTarget(), params).run();
    EXPECT_EQ(outcome.best.hash(), 0x063a6cd614b180bfULL);
    EXPECT_EQ(outcome.bestFlips, 1273u);
    EXPECT_EQ(outcome.firstBypassGeneration, 0u);
}

TEST(PatternFuzzer, SearchWorkIsPinned)
{
    // A serial search asks the shared row-profile cache only for the
    // rows its patterns disturb.  Counting hits and misses alike keeps
    // the ceiling independent of what an earlier test left cached.
    const fuzz::FuzzParams params = armsRaceParams();
    const dram::ProfileCacheStats before = dram::profileCacheStats();
    const fuzz::FuzzOutcome outcome =
        fuzz::PatternFuzzer(armsRaceTarget(), params).run();
    const dram::ProfileCacheStats after = dram::profileCacheStats();
    EXPECT_EQ(outcome.patternsEvaluated,
              params.population * params.generations);
    EXPECT_LE(after.hits - before.hits + after.misses - before.misses,
              516u);
}

TEST(TimedHammer, FlipEventStreamIsPinned)
{
    // The seed families and 32 builder patterns replayed on a fully
    // primed arena against the trr sampler: the ordered flip stream
    // and the engine counters pin activate / refTick / drainPressure
    // bit for bit.
    const fuzz::FuzzTarget target = armsRaceTarget();
    const fuzz::FuzzParams params = armsRaceParams();
    std::vector<dram::FlipEvent> events;
    std::uint64_t flips10 = 0;
    std::uint64_t flips01 = 0;
    std::uint64_t trrRefreshes = 0;
    std::uint64_t timedActivations = 0;
    for (const fuzz::HammeringPattern &pattern :
         familiesThenRandom(params, 0xf11b5, 32)) {
        dram::DramModule module(target.dram);
        const auto observer = target.makeObserver();
        dram::RowHammerEngine engine(module, observer.get());
        engine.setRefTiming(params.timing);
        engine.setEventSink(&events);
        primeWholeArena(engine, target.bank, target.baseRow,
                        params.builder.arenaRows);
        fuzz::runPattern(engine, pattern,
                         {target.bank, target.baseRow, params.windows});
        flips10 += engine.stats().value("flips10");
        flips01 += engine.stats().value("flips01");
        trrRefreshes += engine.stats().value("trrRefreshes");
        timedActivations += engine.stats().value("timedActivations");
    }
    EXPECT_EQ(events.size(), flips10 + flips01);
    EXPECT_EQ(flipDigest(events), 0x76b33e9043d60902ULL);
    EXPECT_EQ(flips10, 2083u);
    EXPECT_EQ(flips01, 6u);
    EXPECT_EQ(trrRefreshes, 67584u);
    EXPECT_EQ(timedActivations, 41196641u);
}

TEST(PatternFuzzer, VictimPrimingMatchesFullArena)
{
    // evaluate() primes only the rows the pattern's aggressors can
    // disturb; it must score exactly like priming the whole arena.
    // Targets: the defended arms-race arena, an undefended one at
    // the bank's first row and one whose aggressors run off the
    // bank's end.
    const fuzz::FuzzParams params = armsRaceParams();
    const fuzz::PatternBuilder builder(params.builder, params.timing);
    std::vector<fuzz::FuzzTarget> targets{armsRaceTarget()};
    fuzz::FuzzTarget edge = armsRaceTarget();
    edge.makeObserver = nullptr;
    edge.baseRow = 0;
    targets.push_back(edge);
    const std::uint64_t rows =
        dram::DramModule(edge.dram).geometry().rowsPerBank();
    edge.baseRow = rows - params.builder.arenaRows / 2;
    targets.push_back(edge);

    std::uint64_t flipped = 0;
    for (const fuzz::FuzzTarget &target : targets) {
        const fuzz::PatternFuzzer fuzzer(target, params);
        for (std::uint64_t i = 0; i < 64; ++i) {
            Rng rng(deriveSeed(0x71c71, i));
            const fuzz::HammeringPattern pattern = builder.random(rng);
            const std::uint64_t score = fuzzer.evaluate(pattern);
            EXPECT_EQ(score, wholeArenaScore(target, params, pattern))
                << "base row " << target.baseRow << ", pattern " << i;
            flipped += score > 0;
        }
    }
    EXPECT_GT(flipped, 64u);
}

TEST(TimedHammer, TrrRefreshPastBankEndIsCountedAndIgnored)
{
    dram::DramModule module(twoBankConfig());
    const std::uint64_t rows = module.geometry().rowsPerBank();
    FixedTrrObserver observer({rows, rows + 7});
    dram::RowHammerEngine engine(module, &observer);
    engine.setRefTiming({1024, 64});

    dram::HammerResult result;
    engine.activate(0, rows - 1, 50, 0, result); // victim rows - 2
    ASSERT_EQ(engine.pendingPressureRows(), 1u);
    engine.refTick(0, result);
    EXPECT_EQ(engine.stats().value("trrRefreshes"), 2u);
    EXPECT_EQ(engine.pendingPressureRows(), 1u);
}

TEST(TimedHammer, TrrRefreshOfCalmRowKeepsPendingCount)
{
    dram::DramModule module(twoBankConfig());
    FixedTrrObserver observer({20});
    dram::RowHammerEngine engine(module, &observer);
    engine.setRefTiming({1024, 64});

    dram::HammerResult result;
    engine.activate(0, 5, 50, 0, result); // victims 4 and 6
    ASSERT_EQ(engine.pendingPressureRows(), 2u);
    engine.refTick(0, result);
    engine.refTick(0, result);
    EXPECT_EQ(engine.stats().value("trrRefreshes"), 2u);
    EXPECT_EQ(engine.pendingPressureRows(), 2u);
}

TEST(TimedHammer, BanksKeepSeparatePressure)
{
    dram::DramModule module(twoBankConfig());
    dram::RowHammerEngine engine(module);
    engine.setRefTiming({4, 64});
    primeWholeArena(engine, 1, 3, 2); // bank-1 rows 2..6

    // A full double-sided window on bank-1 victim 4, whose refresh
    // slot (4 % 4 == 0) is the first REF's.
    const std::uint64_t half =
        dram::RowHammerEngine::activationsPerPass / 2;
    dram::HammerResult result;
    engine.activate(1, 3, half, 0, result);
    engine.activate(1, 5, half, 1, result);
    ASSERT_EQ(engine.pendingPressureRows(), 3u);

    engine.refTick(0, result);
    engine.drainPressure(0, result);
    EXPECT_EQ(result.total(), 0u);
    EXPECT_EQ(engine.pendingPressureRows(), 3u);

    engine.drainPressure(1, result);
    EXPECT_GT(result.total(), 0u);
    EXPECT_EQ(engine.pendingPressureRows(), 0u);
}

TEST(TimedHammer, DrainingEveryBankClearsPending)
{
    dram::DramModule module(twoBankConfig());
    dram::RowHammerEngine engine(module);
    engine.setRefTiming({1024, 64});

    dram::HammerResult result;
    engine.activate(0, 5, 50, 0, result);
    engine.activate(1, 9, 50, 1, result);
    engine.activate(1, 10, 50, 2, result);
    ASSERT_EQ(engine.pendingPressureRows(), 6u);
    engine.drainPressure(0, result);
    EXPECT_EQ(engine.pendingPressureRows(), 4u);
    engine.drainPressure(1, result);
    EXPECT_EQ(engine.pendingPressureRows(), 0u);
}

TEST(FuzzScenario, ArmsRaceManifestLoads)
{
    const sim::Campaign campaign = sim::Campaign::fromManifest(
        repoPath("scenarios/trr-arms-race.json"));
    EXPECT_EQ(campaign.size(), 3u);
}

TEST(FuzzScenario, MachineConfigFuzzBlockRoundTrips)
{
    sim::MachineConfig config;
    config.trrSamplers = 2;
    config.trrWindow = 3;
    config.fuzz.population = 20;
    config.fuzz.generations = 9;
    config.fuzz.windows = 2;
    config.fuzz.seed = 99;
    config.fuzz.timing.refsPerWindow = 512;
    config.fuzz.timing.actsPerInterval = 640;
    config.fuzz.builder.arenaRows = 24;
    config.fuzz.builder.maxEntries = 5;
    config.fuzz.builder.maxPeriod = 3;
    config.fuzz.builder.maxSlots = 7;

    const sim::MachineConfig parsed =
        sim::machineConfigFromJson(sim::toJson(config));
    EXPECT_EQ(parsed, config);
}

} // namespace
} // namespace ctamem
