#include "fuzz/fuzzer.hh"

#include <algorithm>
#include <atomic>
#include <utility>

#include "runtime/thread_pool.hh"

namespace ctamem::fuzz {

namespace {

/**
 * Seed-stream stride between generations: child i of generation g
 * draws from stream g * kGenStride + i, so population sizes up to
 * the stride never collide across generations.
 */
constexpr std::uint64_t kGenStride = 1ULL << 20;

struct FuzzCounters
{
    std::atomic<std::uint64_t> runs{0};
    std::atomic<std::uint64_t> patternsEvaluated{0};
    std::atomic<std::uint64_t> generations{0};
    std::atomic<std::uint64_t> bypassesFound{0};
    std::atomic<std::uint64_t> bestFlips{0};
};

FuzzCounters &
counters()
{
    static FuzzCounters instance;
    return instance;
}

void
atomicMax(std::atomic<std::uint64_t> &slot, std::uint64_t value)
{
    std::uint64_t seen = slot.load(std::memory_order_relaxed);
    while (seen < value &&
           !slot.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
}

} // namespace

FuzzStats
fuzzStats()
{
    const FuzzCounters &c = counters();
    FuzzStats stats;
    stats.runs = c.runs.load(std::memory_order_relaxed);
    stats.patternsEvaluated =
        c.patternsEvaluated.load(std::memory_order_relaxed);
    stats.generations = c.generations.load(std::memory_order_relaxed);
    stats.bypassesFound =
        c.bypassesFound.load(std::memory_order_relaxed);
    stats.bestFlips = c.bestFlips.load(std::memory_order_relaxed);
    return stats;
}

PatternFuzzer::PatternFuzzer(FuzzTarget target,
                             const FuzzParams &params)
    : target_(std::move(target)), params_(params),
      builder_(params.builder, params.timing),
      seed_(params.seed ? params.seed
                        : deriveSeed(target_.dram.seed,
                                     seeds::kFuzzStream))
{}

std::uint64_t
PatternFuzzer::evaluate(const HammeringPattern &pattern) const
{
    // A private replica per evaluation: candidates never share
    // mutable state, which is what makes pool scheduling irrelevant
    // to the outcome.  The replica boots the target's seed, so row
    // profiles come straight from the process-wide cache.
    dram::DramModule module(target_.dram);
    std::unique_ptr<dram::DisturbanceObserver> observer;
    if (target_.makeObserver)
        observer = target_.makeObserver();
    dram::RowHammerEngine engine(module, observer.get());
    engine.setRefTiming(params_.timing);

    // The device rows the pattern can disturb: the neighbours of
    // every aggressor some entry can activate.
    const std::uint64_t rows = module.geometry().rowsPerBank();
    std::vector<std::uint64_t> victims;
    for (const PatternEntry &entry : pattern.entries) {
        for (std::uint64_t burst = 0; burst < entry.bursts(); ++burst) {
            const std::uint64_t row =
                entry.aggressorRow(target_.baseRow, burst);
            if (row >= rows)
                continue;
            const std::uint64_t aggressor =
                module.deviceRow(target_.bank, row);
            if (aggressor > 0)
                victims.push_back(aggressor - 1);
            if (aggressor + 1 < rows)
                victims.push_back(aggressor + 1);
        }
    }

    // Prime those of them in the arena [baseRow - 1, baseRow +
    // arenaRows + 2) flip-ready: every vulnerable cell stores the
    // value its flip direction consumes, so the score counts every
    // cell the pattern's disturbance actually trips.  No other row is
    // ever disturbed and observers never read data, so priming the
    // rest of the arena could not change the score.
    const std::uint64_t first =
        target_.baseRow > 0 ? target_.baseRow - 1 : 0;
    const std::uint64_t last = std::min(
        rows, target_.baseRow + params_.builder.arenaRows + 2);
    for (std::uint64_t row = first; row < last; ++row) {
        const std::uint64_t device =
            module.deviceRow(target_.bank, row);
        if (std::find(victims.begin(), victims.end(), device) ==
            victims.end()) {
            continue;
        }
        const dram::RowVulnProfile &profile =
            engine.rowProfile(target_.bank, device);
        profile.forEachWord([&](std::uint32_t word, std::uint64_t,
                                std::uint64_t dir10) {
            module.writeU64(profile.base + word * 8ULL, dir10);
        });
    }

    PatternRun run;
    run.bank = target_.bank;
    run.baseRow = target_.baseRow;
    run.windows = params_.windows;
    return runPattern(engine, pattern, run).total();
}

FuzzOutcome
PatternFuzzer::run(runtime::ThreadPool *pool)
{
    const std::uint64_t population =
        std::max<std::uint64_t>(2, params_.population);
    const std::uint64_t elite =
        std::max<std::uint64_t>(1, population / 4);
    const std::uint64_t parents =
        std::max<std::uint64_t>(2, population / 2);

    // Generation 0: the published families, then random fill.
    const std::vector<std::string> &families = patternFamilies();
    std::vector<HammeringPattern> current;
    current.reserve(population);
    for (std::uint64_t i = 0; i < population; ++i) {
        if (i < families.size()) {
            current.push_back(builder_.family(families[i]));
        } else {
            Rng rng(deriveSeed(seed_, i));
            current.push_back(builder_.random(rng));
        }
    }

    FuzzOutcome outcome;
    std::vector<std::uint64_t> flips(population);
    std::vector<std::uint64_t> ranked(population);

    for (std::uint64_t g = 0; g < params_.generations; ++g) {
        const auto score = [&](std::uint64_t i) {
            flips[i] = evaluate(current[i]);
        };
        if (pool) {
            pool->parallelFor(0, population, score, /*grain=*/1);
        } else {
            for (std::uint64_t i = 0; i < population; ++i)
                score(i);
        }
        outcome.patternsEvaluated += population;
        ++outcome.generations;

        // Rank by flips; hash then index tie-breaks keep the order —
        // and therefore the whole search — thread-count independent.
        for (std::uint64_t i = 0; i < population; ++i)
            ranked[i] = i;
        std::sort(ranked.begin(), ranked.end(),
                  [&](std::uint64_t lhs, std::uint64_t rhs) {
                      if (flips[lhs] != flips[rhs])
                          return flips[lhs] > flips[rhs];
                      const std::uint64_t hl = current[lhs].hash();
                      const std::uint64_t hr = current[rhs].hash();
                      return hl != hr ? hl < hr : lhs < rhs;
                  });

        const std::uint64_t top = ranked[0];
        if (flips[top] > outcome.bestFlips ||
            (flips[top] == outcome.bestFlips &&
             flips[top] > 0 &&
             current[top].hash() < outcome.best.hash())) {
            outcome.best = current[top];
            outcome.bestFlips = flips[top];
        }
        if (flips[top] > 0 &&
            outcome.firstBypassGeneration == ~0ULL) {
            outcome.firstBypassGeneration = g;
        }

        if (g + 1 == params_.generations)
            break;

        // Next generation: elites survive verbatim, the rest are
        // crossover + mutation children of the top half.
        std::vector<HammeringPattern> next;
        next.reserve(population);
        for (std::uint64_t i = 0; i < elite; ++i)
            next.push_back(current[ranked[i]]);
        for (std::uint64_t i = elite; i < population; ++i) {
            Rng rng(deriveSeed(seed_, (g + 1) * kGenStride + i));
            const HammeringPattern &pa =
                current[ranked[rng.below(parents)]];
            const HammeringPattern &pb =
                current[ranked[rng.below(parents)]];
            next.push_back(
                builder_.mutate(builder_.crossover(pa, pb, rng), rng));
        }
        current = std::move(next);
    }

    FuzzCounters &c = counters();
    c.runs.fetch_add(1, std::memory_order_relaxed);
    c.patternsEvaluated.fetch_add(outcome.patternsEvaluated,
                                  std::memory_order_relaxed);
    c.generations.fetch_add(outcome.generations,
                            std::memory_order_relaxed);
    if (outcome.bestFlips > 0)
        c.bypassesFound.fetch_add(1, std::memory_order_relaxed);
    atomicMax(c.bestFlips, outcome.bestFlips);
    return outcome;
}

} // namespace ctamem::fuzz
