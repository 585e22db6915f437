/**
 * @file
 * Tests of the closed-form security model against the values the
 * paper publishes (abstract, Section 5, Tables 2 and 3), plus
 * Monte-Carlo cross-checks and the capacity model.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <utility>

#include "common/combinatorics.hh"
#include "dram/cell_types.hh"
#include "model/capacity.hh"
#include "model/montecarlo.hh"
#include "model/security_model.hh"
#include "model/tables.hh"
#include "sim/scenarios.hh"

namespace ctamem::model {
namespace {

SystemParams
paperBaseline()
{
    SystemParams params;
    params.memBytes = 8 * GiB;
    params.ptpBytes = 32 * MiB;
    return params;
}

TEST(SecurityModel, HeadlinePExploitable)
{
    // Section 5: P_exploitable = 1.6e-6 for the 8 GiB / 32 MiB case.
    EXPECT_NEAR(pExploitable(paperBaseline()), 1.6e-6, 0.05e-6);
}

TEST(SecurityModel, HeadlineExpectedPtes)
{
    // Section 5: 4,194,304 PTEs, expected 6.7 exploitable.
    const SystemParams params = paperBaseline();
    EXPECT_EQ(params.pteCount(), 4'194'304u);
    EXPECT_NEAR(expectedExploitablePtes(params), 6.7, 0.05);
}

TEST(SecurityModel, RestrictedExpectedPtes)
{
    SystemParams params = paperBaseline();
    params.minIndicatorZeros = 2;
    EXPECT_NEAR(expectedExploitablePtes(params), 4.69e-6, 0.05e-6);
}

TEST(SecurityModel, OneInTwoHundredThousandSystems)
{
    // Abstract: "only one out of 2.04e5 systems is vulnerable".
    SystemParams params = paperBaseline();
    params.minIndicatorZeros = 2;
    const double fraction = vulnerableSystemFraction(params);
    // The paper rounds to 2.04e5; its own E = 4.69e-6 implies
    // 1/4.69e-6 = 2.13e5, which is what the exact model yields.
    EXPECT_NEAR(1.0 / fraction, 2.13e5, 0.05e5);
}

TEST(SecurityModel, AttackTimeUnrestricted)
{
    // Section 5's walk-through: per-page 19.08 s, 57.6 days average.
    const AttackTime time = expectedAttackTime(paperBaseline());
    EXPECT_NEAR(time.perPageSeconds, 19.08, 0.05);
    EXPECT_NEAR(time.avgDays, 57.6, 0.3);
}

TEST(SecurityModel, AttackTimeRestricted)
{
    SystemParams params = paperBaseline();
    params.minIndicatorZeros = 2;
    const AttackTime time = expectedAttackTime(params);
    EXPECT_NEAR(time.avgDays, 230.7, 0.5);
    // Six orders of magnitude slower than the fastest published
    // attack (20 seconds).
    const double seconds = time.avgDays * 86400.0;
    EXPECT_GT(seconds / 20.0, 9.9e5);
}

TEST(SecurityModel, AntiCellZoneAblation)
{
    // Section 5: a ZONE_PTP made of anti-cells has ~3354.7 expected
    // exploitable PTEs and an expected attack time of ~3.2 hours —
    // the low water mark alone is not a defense.
    SystemParams params = paperBaseline();
    params.zoneCells = dram::CellType::Anti;
    EXPECT_NEAR(expectedExploitablePtes(params), 3354.7, 15.0);
    const AttackTime time = expectedAttackTime(params);
    EXPECT_NEAR(time.avgDays * 24.0, 3.2, 0.2);
}

TEST(Table2, MatchesPaper)
{
    const std::vector<TableRow> rows = makeTable2();
    const std::vector<PaperReference> paper = paperTable2();
    ASSERT_EQ(rows.size(), paper.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_NEAR(rows[i].expectedPtes, paper[i].expectedPtes,
                    paper[i].expectedPtes * 0.01)
            << "row " << i;
        EXPECT_NEAR(rows[i].attackDays, paper[i].attackDays,
                    paper[i].attackDays * 0.01)
            << "row " << i;
    }
}

TEST(Table3, MatchesPaper)
{
    const std::vector<TableRow> rows = makeTable3();
    const std::vector<PaperReference> paper = paperTable3();
    ASSERT_EQ(rows.size(), paper.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_NEAR(rows[i].expectedPtes, paper[i].expectedPtes,
                    paper[i].expectedPtes * 0.02)
            << "row " << i;
        EXPECT_NEAR(rows[i].attackDays, paper[i].attackDays,
                    paper[i].attackDays * 0.01)
            << "row " << i;
    }
}

TEST(Table3, RestrictedTimesMatchTable2)
{
    // The paper notes the restricted attack times do not change under
    // pessimistic scaling (exactly-one-exploitable conditioning).
    const auto t2 = makeTable2();
    const auto t3 = makeTable3();
    for (std::size_t i = 0; i < t2.size(); ++i) {
        if (t2[i].restricted) {
            EXPECT_DOUBLE_EQ(t2[i].attackDays, t3[i].attackDays);
        }
    }
}

TEST(MonteCarlo, UniformPointerIsBelowPaperFormula)
{
    SystemParams params = paperBaseline();
    params.errors.pf = 0.05;
    params.errors.p01True = 0.3;
    const McEstimate mc = runMc(McSpec{
        .params = params, .sampler = Sampler::UniformBatched,
        .trials = 200'000});
    // The paper's formula assumes attacker-optimal spray content, so
    // it must upper-bound the uniform-content estimate.
    EXPECT_LT(mc.mean, pExploitable(params));
}

TEST(MonteCarlo, TrueCellsBeatAntiCells)
{
    SystemParams true_zone = paperBaseline();
    true_zone.errors.pf = 0.02;
    SystemParams anti_zone = true_zone;
    anti_zone.zoneCells = dram::CellType::Anti;
    const McEstimate mc_true =
        runMc(McSpec{.params = true_zone, .zeros = 1, .trials = 200'000});
    const McEstimate mc_anti =
        runMc(McSpec{.params = anti_zone, .zeros = 1, .trials = 200'000});
    EXPECT_LT(mc_true.mean * 10, mc_anti.mean + 1e-12);
}

SystemParams
boostedParams()
{
    SystemParams params = paperBaseline();
    params.errors.pf = 0.05;
    params.errors.p01True = 0.3;
    return params;
}

TEST(MonteCarloBatched, FixedZerosMatchesClosedForm)
{
    McSpec spec;
    spec.params = boostedParams();
    spec.sampler = Sampler::FixedZerosBatched;
    spec.trials = 400'000;
    for (unsigned zeros : {1u, 2u}) {
        spec.zeros = zeros;
        const double exact =
            pExploitableExactZeros(spec.params, zeros);
        const McEstimate mc = runMc(spec);
        EXPECT_EQ(mc.trials, spec.trials);
        EXPECT_NEAR(mc.mean, exact, 5 * mc.stderr + 1e-9)
            << "zeros=" << zeros;
    }
}

TEST(MonteCarloBatched, UniformMatchesClosedForm)
{
    McSpec spec;
    spec.params = boostedParams();
    spec.sampler = Sampler::UniformBatched;
    spec.trials = 400'000;
    const double exact = pExploitableUniform(spec.params);
    const McEstimate mc = runMc(spec);
    EXPECT_NEAR(mc.mean, exact, 5 * mc.stderr + 1e-9);
}

TEST(MonteCarloBatched, ImportanceSamplingUnbiasedAtBoostedParams)
{
    // Where the direct estimator also works, the likelihood-ratio
    // estimator must land on the same closed form.
    McSpec spec;
    spec.params = boostedParams();
    spec.sampler = Sampler::FixedZerosBatched;
    spec.mode = Mode::ImportanceSampled;
    spec.zeros = 1;
    spec.trials = 400'000;
    const double exact = pExploitableExactZeros(spec.params, 1);
    const McEstimate mc = runMc(spec);
    EXPECT_NEAR(mc.mean, exact, 5 * mc.stderr + 1e-9);
    EXPECT_GT(mc.ess, 0.0);
}

TEST(MonteCarloBatched, UniformImportanceSamplingUnbiased)
{
    McSpec spec;
    spec.params = boostedParams();
    spec.sampler = Sampler::UniformBatched;
    spec.mode = Mode::ImportanceSampled;
    spec.trials = 400'000;
    const double exact = pExploitableUniform(spec.params);
    const McEstimate mc = runMc(spec);
    EXPECT_NEAR(mc.mean, exact, 5 * mc.stderr + 1e-9);
}

TEST(MonteCarloBatched, ImportanceSamplingReachesRareTail)
{
    // Production parameters, restricted pointers: the per-trial hit
    // probability is ~4e-14.  The direct estimator at 400k trials is
    // blind to it; the importance-sampled one resolves it to a few
    // percent in the same budget.
    SystemParams params = paperBaseline();
    params.minIndicatorZeros = 2;
    const double exact = pExploitableExactZeros(params, 2);
    ASSERT_GT(exact, 0.0);
    ASSERT_LT(exact, 1e-9);

    McSpec direct;
    direct.params = params;
    direct.sampler = Sampler::FixedZerosBatched;
    direct.zeros = 2;
    direct.trials = 400'000;
    EXPECT_EQ(runMc(direct).mean, 0.0); // blind to the tail

    McSpec tilted = direct;
    tilted.mode = Mode::ImportanceSampled;
    const McEstimate mc = runMc(tilted);
    EXPECT_GT(mc.mean, 0.0);
    EXPECT_NEAR(mc.mean, exact, 5 * mc.stderr);
    EXPECT_LT(mc.stderr, exact); // genuinely resolved, not one fluke
    EXPECT_GT(mc.ess, 100.0);
}

TEST(SecurityModel, ClosedFormHelpersMatchDefinitions)
{
    const SystemParams params = boostedParams();
    const unsigned n = params.indicatorBits();
    const double p_up = params.errors.upFlipProb(dram::CellType::True);
    const double p_down = params.errors.downFlipProb(dram::CellType::True);
    for (unsigned zeros : {1u, 2u, n}) {
        const double expect =
            std::pow(p_up, zeros) *
            std::pow(1.0 - p_down, n - zeros);
        EXPECT_NEAR(pExploitableExactZeros(params, zeros), expect,
                    expect * 1e-12)
            << "zeros=" << zeros;
    }
    // The uniform closed form averages the exactly-z terms over the
    // nonzero pointer values below the mark.
    double total = 0.0;
    for (unsigned z = 1; z <= n; ++z)
        total += choose(n, z) * pExploitableExactZeros(params, z);
    const double expect =
        total / (static_cast<double>(1ULL << n) - 1.0);
    EXPECT_NEAR(pExploitableUniform(params), expect, expect * 1e-12);
}

TEST(SecurityModel, NumbersArePinnedBitForBit)
{
    // Every Table 2/3 row, the Algorithm 1 pricing grid and the four
    // bit-sliced Monte-Carlo estimates, as hex floats: a refactor of
    // the model layer must reproduce each to the last bit.
    struct Row
    {
        double expectedPtes;
        double attackDays;
    };
    const Row table2[] = {
        {0x1.ad3273683307p+2, 0x1.cd6c3c1ce1fbp+5},
        {0x1.7795bb07ab026p+3, 0x1.1979b932e79e6p+6},
        {0x1.3b10394a0ba43p-18, 0x1.cd6c3c1ce1fbp+7},
        {0x1.d8a4672e879ddp-18, 0x1.c965ccf2b8616p+8},
        {0x1.e2cc6ef11edc6p+2, 0x1.9af5336b43be5p+6},
        {0x1.ad3273683307p+3, 0x1.e9cfc9548d017p+6},
        {0x1.950a8447d727fp-18, 0x1.ce53d9d8ac362p+8},
        {0x1.3b10394a0ba43p-17, 0x1.cb32ccbf44316p+9},
        {0x1.0c31d6dea21b6p+3, 0x1.723953c5410fep+7},
        {0x1.e2cc6ef11edc6p+3, 0x1.b108c09bcd452p+7},
        {0x1.fa40381a3dda4p-18, 0x1.cec7a8b69153dp+9},
        {0x1.950a8447d727fp-17, 0x1.cc194ca58a197p+10},
    };
    const Row table3[] = {
        {0x1.4e61659d6992ep+6, 0x1.5b6c99af58d51p+2},
        {0x1.24ba6916b12a9p+7, 0x1.8b96506337ae3p+2},
        {0x1.7faf07198eeep-11, 0x1.cd6c3c1ce1fbp+7},
        {0x1.1fe7e086f2397p-10, 0x1.c965ccf2b8616p+8},
        {0x1.77fdc82a4a25ap+6, 0x1.377677cff2ab3p+3},
        {0x1.4e61659d6992ep+7, 0x1.5bcb9687c6958p+3},
        {0x1.ed10070bd88bfp-11, 0x1.ce53d9d8ac362p+8},
        {0x1.7faf07198eeep-10, 0x1.cb32ccbf44316p+9},
        {0x1.a18f92c2ccdd7p+6, 0x1.176a0eebd07fep+4},
        {0x1.77fdc82a4a25ap+7, 0x1.3799f02f1872cp+4},
        {0x1.3402d5cd1ea91p-10, 0x1.cec7a8b69153dp+9},
        {0x1.ed10070bd88bfp-10, 0x1.cc194ca58a197p+10},
    };
    for (const auto &[rows, pins] :
         {std::pair{makeTable2(), std::span<const Row>(table2)},
          std::pair{makeTable3(), std::span<const Row>(table3)}}) {
        ASSERT_EQ(rows.size(), pins.size());
        for (std::size_t i = 0; i < rows.size(); ++i) {
            EXPECT_EQ(rows[i].expectedPtes, pins[i].expectedPtes)
                << "row " << i;
            EXPECT_EQ(rows[i].attackDays, pins[i].attackDays)
                << "row " << i;
        }
    }

    // perPageSeconds, worstDays, avgDays per pricingGrid() point.
    const AttackTime pricing[] = {
        {0x1.315a73131d134p+4, 0x1.cd6c3c1ce1fbp+8, 0x1.cd6c3c1ce1fbp+5},
        {0x1.2fe19e15295cfp+5, 0x1.c965ccf2b8616p+9, 0x1.1979b932e79e6p+6},
        {0x1.315a73131d134p+4, 0x1.ce53d9d8ac362p+9, 0x1.9af5336b43be5p+6},
        {0x1.2fe19e15295cfp+5, 0x1.cb32ccbf44316p+10, 0x1.e9cfc9548d017p+6},
        {0x1.315a73131d134p+4, 0x1.cec7a8b69153dp+10, 0x1.723953c5410fep+7},
        {0x1.2fe19e15295cfp+5, 0x1.cc194ca58a197p+11, 0x1.b108c09bcd452p+7},
    };
    const std::vector<sim::scenarios::PricingPoint> grid =
        sim::scenarios::pricingGrid();
    ASSERT_EQ(grid.size(), std::size(pricing));
    for (std::size_t i = 0; i < grid.size(); ++i) {
        SystemParams params;
        params.memBytes = grid[i].memBytes;
        params.ptpBytes = grid[i].ptpBytes;
        const AttackTime time = expectedAttackTime(params);
        EXPECT_EQ(time.perPageSeconds, pricing[i].perPageSeconds)
            << "point " << i;
        EXPECT_EQ(time.worstDays, pricing[i].worstDays) << "point " << i;
        EXPECT_EQ(time.avgDays, pricing[i].avgDays) << "point " << i;
    }

    // mean, stderr, ess at the boosted parameters, 100k trials, the
    // default seed: {FixedZeros, Uniform} x {Standard, IS}.
    const McEstimate mc[] = {
        {0x1.7acc4ef88b978p-7, 0x1.6272fe03d37cp-12, 100'000, 0x1.21p+10},
        {0x1.7e2fb0c7b3885p-7, 0x1.83f00781f6168p-15, 100'000,
         0x1.2fbcp+15},
        {0x1.e2584f4c6e6dap-12, 0x1.1c67f6498b82dp-14, 100'000, 0x1.7p+5},
        {0x1.a4dc53cd670bfp-12, 0x1.647a6b6e6ec64p-17, 100'000,
         0x1.5fccce1a08429p+10},
    };
    std::size_t i = 0;
    for (const Sampler sampler :
         {Sampler::FixedZerosBatched, Sampler::UniformBatched}) {
        for (const Mode mode : {Mode::Standard, Mode::ImportanceSampled}) {
            McSpec spec;
            spec.params = boostedParams();
            spec.sampler = sampler;
            spec.mode = mode;
            spec.trials = 100'000;
            const McEstimate estimate = runMc(spec);
            EXPECT_EQ(estimate.mean, mc[i].mean) << "estimate " << i;
            EXPECT_EQ(estimate.stderr, mc[i].stderr) << "estimate " << i;
            EXPECT_EQ(estimate.trials, mc[i].trials) << "estimate " << i;
            EXPECT_EQ(estimate.ess, mc[i].ess) << "estimate " << i;
            ++i;
        }
    }
}

TEST(Capacity, WorstCase078Percent)
{
    // Section 6.2: worst case 0.78% for 8 GiB with a 64 MiB anti
    // stripe wasted (alternating 512 x 128 KiB rows).
    const double fraction =
        worstCaseLossFraction(512, 128 * KiB, 8 * GiB, 32 * MiB);
    EXPECT_NEAR(fraction, 0.0078, 0.0001);
}

TEST(Capacity, AnalyticMatchesLayoutWalk)
{
    // True-first alternating 512 over 8 GiB: top stripe is anti
    // (65536 rows -> 128 stripes, stripe 127 odd -> anti).
    const dram::CellTypeMap map = dram::CellTypeMap::alternating(512);
    const CapacityLoss loss =
        analyzeCapacityLoss(map, 8 * GiB, 32 * MiB);
    EXPECT_EQ(loss.skippedAntiBytes, 64 * MiB);
    EXPECT_NEAR(loss.lossFraction(8 * GiB), 0.0078, 0.0001);
    EXPECT_EQ(loss.ptpBytes, 32 * MiB);

    // Best case: true cells on top -> zero loss.
    const dram::CellTypeMap lucky =
        dram::CellTypeMap::alternating(512, /*true_first=*/false);
    const CapacityLoss no_loss =
        analyzeCapacityLoss(lucky, 8 * GiB, 32 * MiB);
    EXPECT_EQ(no_loss.skippedAntiBytes, 0u);
}

TEST(Capacity, MostlyTrueModulesLoseLess)
{
    const dram::CellTypeMap ratio = dram::CellTypeMap::mostlyTrue(1000);
    const CapacityLoss loss =
        analyzeCapacityLoss(ratio, 8 * GiB, 32 * MiB);
    EXPECT_LE(loss.skippedAntiBytes, 128 * KiB);
}

} // namespace
} // namespace ctamem::model
