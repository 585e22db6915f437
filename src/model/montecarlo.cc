#include "model/montecarlo.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "common/bitops.hh"
#include "common/log.hh"
#include "runtime/thread_pool.hh"

namespace ctamem::model {

namespace {

// ---------------------------------------------------------------
// Bit-sliced kernel.
//
// Trials run in blocks of 64 lanes.  For each indicator bit the flip
// outcome across the whole block is one Bernoulli mask, so a block's
// verdict ("value == allOnes" per lane) collapses to an AND-reduce
// over ~n words and a popcount.  Importance sampling reuses the same
// kernel: up-flips are drawn at a tilted probability qUp and each hit
// contributes its likelihood ratio instead of 1 — Standard mode is
// the identity tilt, where every weight is exactly 1.
// ---------------------------------------------------------------

/** Per-chunk tallies.  Summed in chunk-index order, so the fold is
 *  exact in the integer fields and performed in a fixed
 *  double-addition order — bit-identical at any thread count. */
struct Tally
{
    std::uint64_t trials = 0;
    std::uint64_t hits = 0;
    double sumW = 0.0;  //!< sum of hit weights (== hits, untilted)
    double sumW2 = 0.0; //!< sum of squared hit weights

    void
    merge(const Tally &other)
    {
        trials += other.trials;
        hits += other.hits;
        sumW += other.sumW;
        sumW2 += other.sumW2;
    }
};

/** Flip probabilities and likelihood-ratio weights of one spec. */
struct KernelSetup
{
    explicit KernelSetup(const McSpec &spec)
        : n(spec.params.indicatorBits()),
          pUp(spec.params.errors.upFlipProb(spec.params.zoneCells)),
          pDown(spec.params.errors.downFlipProb(spec.params.zoneCells)),
          allOnes((1ULL << n) - 1)
    {
        // Importance sampling tilts up-flips to at least 1/2 so hits
        // are common; down-flips stay untilted.
        qUp = spec.mode == Mode::ImportanceSampled ? std::max(pUp, 0.5)
                                                   : pUp;
        // FixedZeros hold masks collapse to one draw: the AND of
        // n - zeros independent Bernoulli(1 - pDown) masks is itself
        // Bernoulli((1 - pDown)^(n - zeros)) per lane.
        qHoldAll =
            std::pow(1.0 - pDown, static_cast<int>(n - spec.zeros));
        identityWeights = qUp == pUp;
        // A hit with z indicator zeros saw z up-flips succeed, each
        // drawn at qUp instead of pUp: its likelihood ratio is
        // (pUp/qUp)^z.
        const double w_up = qUp > 0.0 ? pUp / qUp : 0.0;
        weightByZeros.resize(n + 1);
        for (unsigned z = 0; z <= n; ++z)
            weightByZeros[z] = std::pow(w_up, z);
    }

    unsigned n;
    double pUp;
    double pDown;
    std::uint64_t allOnes;
    double qUp;
    /** P(no down-flip in any of the n - zeros held bits). */
    double qHoldAll;
    bool identityWeights;
    /** Hit weight as a function of the indicator's zero count. */
    std::vector<double> weightByZeros;
};

/** Fold @p hits_mask (restricted to live lanes) into @p tally with
 *  one shared weight — the FixedZeros case, and any case where all
 *  hits in the block weigh the same. */
void
tallyUniformWeight(std::uint64_t hits_mask, double weight, Tally &tally)
{
    const unsigned h = popcount(hits_mask);
    tally.hits += h;
    tally.sumW += weight * h;
    tally.sumW2 += weight * weight * h;
}

/**
 * One 64-lane block of FixedZeros trials.  Which positions hold the
 * zeros never affects the verdict (the flip draws are i.i.d. across
 * positions), so the block reduces to: all `zeros` up-flips succeed
 * AND all n - zeros holds succeed — one up mask per zero bit, and
 * the holds collapsed into a single qHoldAll mask.
 */
void
fixedZerosBlock(Rng &rng, const KernelSetup &setup, unsigned zeros,
                std::uint64_t lane_mask, Tally &tally)
{
    // Each mask is restricted to the lanes still in play, so after
    // the first up mask kills most of the block the remaining draws
    // cost ~2 words each instead of ~8.
    std::uint64_t hits = lane_mask;
    for (unsigned i = 0; i < zeros && hits; ++i)
        hits &= rng.bernoulliMask(setup.qUp, hits);
    if (hits)
        hits &= rng.bernoulliMask(setup.qHoldAll, hits);
    tally.trials += popcount(lane_mask);
    tallyUniformWeight(hits, setup.weightByZeros[zeros], tally);
}

/**
 * One 64-lane block of Uniform trials.  ind[b] holds indicator bit b
 * of every lane; lanes that draw the all-ones indicator (the zone
 * itself) are redrawn from nextBounded, so every lane's indicator is
 * uniform over [0, 2^n - 1).
 */
void
uniformBlock(Rng &rng, const KernelSetup &setup, std::uint64_t lane_mask,
             Tally &tally)
{
    const unsigned n = setup.n;
    std::uint64_t ind[64];
    for (unsigned b = 0; b < n; ++b)
        ind[b] = rng.next();

    std::uint64_t all_ones = lane_mask;
    for (unsigned b = 0; b < n && all_ones; ++b)
        all_ones &= ind[b];
    while (all_ones) {
        const unsigned lane =
            static_cast<unsigned>(std::countr_zero(all_ones));
        all_ones &= all_ones - 1;
        const std::uint64_t redraw = rng.nextBounded(setup.allOnes);
        for (unsigned b = 0; b < n; ++b) {
            ind[b] = (ind[b] & ~(1ULL << lane)) |
                     (((redraw >> b) & 1ULL) << lane);
        }
    }

    std::uint64_t hits = lane_mask;
    for (unsigned b = 0; b < n && hits; ++b) {
        // Flip masks narrowed to the lanes still in play; dead lanes
        // get 0 bits, which the AND below ignores.
        const std::uint64_t up = rng.bernoulliMask(setup.qUp, hits);
        const std::uint64_t down = rng.bernoulliMask(setup.pDown, hits);
        // Post-flip value of bit b, lane-parallel.
        hits &= (ind[b] & ~down) | (~ind[b] & up);
    }

    tally.trials += popcount(lane_mask);
    if (setup.identityWeights) {
        tallyUniformWeight(hits, 1.0, tally);
        return;
    }
    // Tilted: a hit's weight depends on its indicator's zero count.
    while (hits) {
        const unsigned lane =
            static_cast<unsigned>(std::countr_zero(hits));
        hits &= hits - 1;
        unsigned zeros = 0;
        for (unsigned b = 0; b < n; ++b)
            zeros += !((ind[b] >> lane) & 1ULL);
        const double w = setup.weightByZeros[zeros];
        ++tally.hits;
        tally.sumW += w;
        tally.sumW2 += w * w;
    }
}

/**
 * Run one seeding chunk (64-lane blocks; the ragged tail masks out
 * the dead lanes).  The chunk's Rng is derived from
 * (seed, chunkIndex) alone, so chunks are independent of execution
 * order and of each other.
 */
Tally
runChunk(const McSpec &spec, const KernelSetup &setup,
         std::uint64_t chunkIndex, std::uint64_t trials)
{
    Rng rng(deriveSeed(spec.seed, chunkIndex));
    Tally tally;
    for (std::uint64_t done = 0; done < trials; done += 64) {
        const std::uint64_t live =
            std::min<std::uint64_t>(64, trials - done);
        const std::uint64_t lane_mask =
            live == 64 ? ~0ULL : (1ULL << live) - 1;
        if (spec.sampler == Sampler::FixedZerosBatched)
            fixedZerosBlock(rng, setup, spec.zeros, lane_mask, tally);
        else
            uniformBlock(rng, setup, lane_mask, tally);
    }
    return tally;
}

/** Index-ordered fold of per-chunk tallies into the estimate. */
McEstimate
summarize(const std::vector<Tally> &chunks)
{
    Tally total;
    for (const Tally &chunk : chunks)
        total.merge(chunk);
    const double m = static_cast<double>(total.trials);
    const double mean = total.sumW / m;
    // Var(w * 1_hit) = E[w^2 1_hit] - mean^2; for the identity tilt
    // this is exactly the Bernoulli mean(1 - mean).
    const double var =
        std::max(0.0, total.sumW2 / m - mean * mean);
    McEstimate estimate;
    estimate.mean = mean;
    estimate.stderr = std::sqrt(var / m);
    estimate.trials = total.trials;
    estimate.ess =
        total.sumW2 > 0.0 ? total.sumW * total.sumW / total.sumW2
                          : 0.0;
    return estimate;
}

/** Serial when @p pool is null; chunks are independent either way. */
McEstimate
run(const McSpec &spec, runtime::ThreadPool *pool)
{
    if (spec.trials == 0)
        fatal("runMc: zero trials");
    if (spec.chunkSize == 0)
        fatal("runMc: zero chunkSize");
    if (spec.sampler == Sampler::FixedZerosBatched &&
        spec.zeros > spec.params.indicatorBits())
        fatal("runMc: zeros > indicator bits");

    const KernelSetup setup(spec);
    const std::uint64_t chunks =
        (spec.trials + spec.chunkSize - 1) / spec.chunkSize;
    std::vector<Tally> partial(chunks);
    auto one = [&](std::uint64_t i) {
        const std::uint64_t trials =
            i + 1 < chunks ? spec.chunkSize
                           : spec.trials - spec.chunkSize * (chunks - 1);
        partial[i] = runChunk(spec, setup, i, trials);
    };
    if (pool) {
        // Each chunk writes only its own slot; the fold walks slots
        // in index order, so thread count cannot affect the result.
        pool->parallelFor(0, chunks, one, /*grain=*/1);
    } else {
        for (std::uint64_t i = 0; i < chunks; ++i)
            one(i);
    }
    return summarize(partial);
}

} // namespace

McEstimate
runMc(const McSpec &spec)
{
    return run(spec, nullptr);
}

McEstimate
runMc(const McSpec &spec, runtime::ThreadPool &pool)
{
    return run(spec, &pool);
}

} // namespace ctamem::model
