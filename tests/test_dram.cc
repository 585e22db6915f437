/**
 * @file
 * Unit tests for the DRAM substrate: geometry/address mapping,
 * cell-type maps, sparse storage, fault model, decay, re-mapping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/bitops.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "dram/cell_types.hh"
#include "dram/fault_model.hh"
#include "dram/geometry.hh"
#include "dram/module.hh"
#include "dram/sparse_store.hh"
#include "fault_oracle.hh"

namespace ctamem::dram {
namespace {

DramConfig
smallConfig()
{
    DramConfig config;
    config.capacity = 256 * MiB;
    config.rowBytes = 128 * KiB;
    config.banks = 8;
    config.cellMap = CellTypeMap::alternating(64);
    config.seed = 7;
    return config;
}

TEST(Geometry, RoundTripBankBlocked)
{
    Geometry geom(256 * MiB, 128 * KiB, 8, AddressScheme::BankBlocked);
    EXPECT_EQ(geom.totalRows(), 2048u);
    EXPECT_EQ(geom.rowsPerBank(), 256u);
    EXPECT_EQ(geom.pagesPerRow(), 32u);
    for (Addr addr : {Addr{0}, Addr{131071}, Addr{131072},
                      Addr{200 * MiB + 12345}, 256 * MiB - 1}) {
        const Location loc = geom.locate(addr);
        EXPECT_EQ(geom.address(loc), addr);
    }
}

TEST(Geometry, RoundTripRowInterleaved)
{
    Geometry geom(256 * MiB, 128 * KiB, 8,
                  AddressScheme::RowInterleaved);
    for (Addr addr : {Addr{0}, Addr{131072}, Addr{77 * MiB + 999}}) {
        const Location loc = geom.locate(addr);
        EXPECT_EQ(geom.address(loc), addr);
    }
    // Consecutive rows land in consecutive banks.
    EXPECT_EQ(geom.locate(0).bank, 0u);
    EXPECT_EQ(geom.locate(128 * KiB).bank, 1u);
}

TEST(Geometry, ContiguityWithinBankBlock)
{
    Geometry geom(256 * MiB, 128 * KiB, 8, AddressScheme::BankBlocked);
    // Adjacent addresses in one bank block are adjacent rows.
    const Location a = geom.locate(0);
    const Location b = geom.locate(128 * KiB);
    EXPECT_EQ(a.bank, b.bank);
    EXPECT_EQ(a.row + 1, b.row);
}

TEST(Geometry, RejectsBadParameters)
{
    EXPECT_THROW(Geometry(100, 128 * KiB), FatalError);
    EXPECT_THROW(Geometry(256 * MiB, 100), FatalError);
    EXPECT_THROW(Geometry(256 * MiB, 128 * KiB, 3), FatalError);
    EXPECT_THROW(Geometry(1 * MiB, 128 * KiB, 16), FatalError);
}

TEST(CellTypes, AlternatingLayout)
{
    CellTypeMap map = CellTypeMap::alternating(512);
    EXPECT_EQ(map.rowType(0), CellType::True);
    EXPECT_EQ(map.rowType(511), CellType::True);
    EXPECT_EQ(map.rowType(512), CellType::Anti);
    EXPECT_EQ(map.rowType(1023), CellType::Anti);
    EXPECT_EQ(map.rowType(1024), CellType::True);

    CellTypeMap anti_first = CellTypeMap::alternating(512, false);
    EXPECT_EQ(anti_first.rowType(0), CellType::Anti);
    EXPECT_EQ(anti_first.rowType(512), CellType::True);
}

TEST(CellTypes, RatioLayouts)
{
    CellTypeMap mostly_true = CellTypeMap::mostlyTrue(1000);
    unsigned anti = 0;
    for (std::uint64_t row = 0; row < 1001; ++row)
        if (mostly_true.rowType(row) == CellType::Anti)
            ++anti;
    EXPECT_EQ(anti, 1u);

    CellTypeMap uniform = CellTypeMap::uniform(CellType::Anti);
    EXPECT_EQ(uniform.rowType(12345), CellType::Anti);
}

TEST(CellTypes, ChargedAndDischargedValues)
{
    EXPECT_EQ(chargedBit(CellType::True), 1);
    EXPECT_EQ(dischargedBit(CellType::True), 0);
    EXPECT_EQ(chargedBit(CellType::Anti), 0);
    EXPECT_EQ(dischargedBit(CellType::Anti), 1);
}

TEST(SparseStore, ReadWriteRoundTrip)
{
    SparseStore store;
    EXPECT_EQ(store.readByte(12345), 0);
    store.writeByte(12345, 0xab);
    EXPECT_EQ(store.readByte(12345), 0xab);

    store.writeU64(8 * MiB, 0x1122334455667788ULL);
    EXPECT_EQ(store.readU64(8 * MiB), 0x1122334455667788ULL);
}

TEST(SparseStore, CrossPageSpan)
{
    SparseStore store;
    std::uint8_t buffer[pageSize * 2];
    for (std::size_t i = 0; i < sizeof(buffer); ++i)
        buffer[i] = static_cast<std::uint8_t>(i * 37);
    const Addr base = 3 * pageSize - 100; // straddles three frames
    store.write(base, buffer, sizeof(buffer));
    std::uint8_t back[sizeof(buffer)];
    store.read(base, back, sizeof(back));
    EXPECT_EQ(std::memcmp(buffer, back, sizeof(buffer)), 0);
    EXPECT_EQ(store.frameCount(), 3u);
}

TEST(SparseStore, BitAccess)
{
    SparseStore store;
    store.writeBit(999, 3, true);
    EXPECT_TRUE(store.readBit(999, 3));
    EXPECT_FALSE(store.readBit(999, 2));
    store.writeBit(999, 3, false);
    EXPECT_EQ(store.readByte(999), 0);
}

TEST(SparseStore, LazyMaterialization)
{
    SparseStore store;
    EXPECT_FALSE(store.touched(0));
    EXPECT_EQ(store.frameCount(), 0u);
    (void)store.readU64(64 * MiB); // reads do not materialize
    EXPECT_EQ(store.frameCount(), 0u);
    store.writeByte(64 * MiB, 1);
    EXPECT_TRUE(store.touched(64 * MiB));
    EXPECT_EQ(store.frameCount(), 1u);
}

TEST(SparseStore, WordStraddlingFramesRoundTrips)
{
    // The U64 fast path only covers within-frame words; a straddling
    // word must still round-trip through the span-wise path.
    SparseStore store(0xcc);
    const Addr straddle = pageSize - 3;
    store.writeU64(straddle, 0x0102030405060708ULL);
    EXPECT_EQ(store.readU64(straddle), 0x0102030405060708ULL);
    EXPECT_EQ(store.frameCount(), 2u);

    // An untouched straddling word reads as the fill pattern.
    EXPECT_EQ(store.readU64(7 * pageSize - 4), 0xccccccccccccccccULL);
    EXPECT_EQ(store.frameCount(), 2u);
}

TEST(SparseStore, FrameCacheSurvivesInterleavingAndRehash)
{
    SparseStore store(0x55);
    // Prime the last-frame cache, then bounce between frames; every
    // access must see its own frame's data, not the cached one.
    store.writeByte(0, 1);
    store.writeByte(pageSize, 2);
    EXPECT_EQ(store.readByte(0), 1);
    EXPECT_EQ(store.readByte(pageSize), 2);
    EXPECT_EQ(store.readByte(1), 0x55); // rest of frame keeps fill

    // Force many materializations so the frame map rehashes; the
    // cached pointer must stay valid (frames are stable heap blocks).
    store.writeByte(0, 7);
    for (Pfn pfn = 2; pfn < 200; ++pfn)
        store.writeByte(pfnToAddr(pfn), static_cast<std::uint8_t>(pfn));
    EXPECT_EQ(store.readByte(0), 7);
}

TEST(FaultModel, VulnerabilityRateMatchesPf)
{
    FaultModel faults(11, ErrorStats{});
    const std::uint64_t cells = 2'000'000;
    const std::uint64_t frames = (cells / 8 + pageSize - 1) / pageSize;
    std::uint64_t vulnerable = 0;
    for (const std::uint64_t cell :
         vulnerableCells(faults, 0, frames * pageSize))
        vulnerable += cell < cells;
    // Expected 200 +- statistical noise.
    EXPECT_NEAR(static_cast<double>(vulnerable), 200.0, 60.0);
}

/** A fault model whose cells are vulnerable with probability @p pf. */
FaultModel
modelAt(std::uint64_t seed, double pf)
{
    ErrorStats stats;
    stats.pf = pf;
    return FaultModel(seed, stats);
}

/** Vulnerable cells of frame @p pfn. */
std::vector<std::uint32_t>
cellsOfFrame(const FaultModel &faults, Pfn pfn)
{
    std::vector<std::uint32_t> cells;
    faults.frameCells(pfnToAddr(pfn), cells);
    return cells;
}

/**
 * Pearson chi-square of the vulnerable-cell counts of frames
 * [0, @p frames) against Binomial(kFrameCells, pf), pooling adjacent
 * counts until every bin expects at least 5 frames.  Sets @p df to
 * the bins less one.
 */
double
frameCountChiSquare(const FaultModel &faults, std::uint64_t frames,
                    unsigned &df)
{
    const double pf = faults.stats().pf;
    const std::uint32_t n = FaultModel::kFrameCells;
    std::vector<std::uint64_t> observed(n + 1);
    for (Pfn pfn = 0; pfn < frames; ++pfn)
        ++observed[cellsOfFrame(faults, pfn).size()];

    double chi2 = 0.0;
    unsigned bins = 0;
    double bin_expected = 0.0;
    double bin_observed = 0.0;
    double tail = static_cast<double>(frames); // expected above k
    for (std::uint32_t k = 0; k <= n; ++k) {
        const double log_pmf =
            std::lgamma(n + 1.0) - std::lgamma(k + 1.0) -
            std::lgamma(n - k + 1.0) + k * std::log(pf) +
            (n - k) * std::log1p(-pf);
        const double expected =
            static_cast<double>(frames) * std::exp(log_pmf);
        bin_expected += expected;
        bin_observed += static_cast<double>(observed[k]);
        tail -= expected;
        // The last bin takes every count once fewer than 5 remain.
        if ((bin_expected >= 5.0 && tail >= 5.0) || k == n) {
            const double diff = bin_observed - bin_expected;
            chi2 += diff * diff / bin_expected;
            ++bins;
            bin_expected = 0.0;
            bin_observed = 0.0;
        }
    }
    df = bins - 1;
    return chi2;
}

/** Upper 0.1% point of chi-square with @p df degrees of freedom
 *  (Wilson-Hilferty). */
double
chiSquareCritical(unsigned df)
{
    const double z = 3.090; // upper 0.1% point of N(0, 1)
    const double a = 2.0 / (9.0 * df);
    return df * std::pow(1.0 - a + z * std::sqrt(a), 3.0);
}

/**
 * Kolmogorov-Smirnov distance between the gaps before vulnerable
 * cells (cells skipped since the previous one or the frame start) in
 * frames [0, @p frames) and Geometric(pf).  Only a gap starting at
 * least `reach` cells before the frame end counts, where a gap that
 * long has probability 1e-6: the frame end then cuts off no counted
 * gap by more than that.  Sets @p samples to the gaps counted.
 */
double
gapKsDistance(const FaultModel &faults, std::uint64_t frames,
              std::uint64_t &samples)
{
    const double pf = faults.stats().pf;
    const double reach = std::log(1e-6) / std::log1p(-pf);
    std::vector<std::uint32_t> gaps;
    for (Pfn pfn = 0; pfn < frames; ++pfn) {
        std::uint32_t start = 0;
        for (const std::uint32_t cell : cellsOfFrame(faults, pfn)) {
            if (FaultModel::kFrameCells - start >= reach)
                gaps.push_back(cell - start);
            start = cell + 1;
        }
    }
    std::sort(gaps.begin(), gaps.end());
    samples = gaps.size();

    double distance = 0.0;
    std::size_t at_most = 0; // gaps <= k
    for (std::uint32_t k = 0; k <= gaps.back(); ++k) {
        while (at_most < gaps.size() && gaps[at_most] <= k)
            ++at_most;
        const double empirical = static_cast<double>(at_most) /
                                 static_cast<double>(gaps.size());
        const double cdf = -std::expm1((k + 1.0) * std::log1p(-pf));
        distance = std::max(distance, std::abs(empirical - cdf));
    }
    return distance;
}

TEST(FaultModel, FrameCountsFollowTheBinomial)
{
    // Each of a frame's 32,768 cells is vulnerable with probability
    // pf, independently, so a frame's count is Binomial(32768, pf).
    for (const auto &[pf, frames] :
         {std::pair{1e-3, 4000ULL}, std::pair{3e-2, 2000ULL}}) {
        unsigned df = 0;
        const double chi2 =
            frameCountChiSquare(modelAt(0xb1407, pf), frames, df);
        EXPECT_GE(df, 10u) << "pf " << pf;
        EXPECT_LT(chi2, chiSquareCritical(df))
            << "pf " << pf << " df " << df;
    }
}

TEST(FaultModel, FrameGapsFollowTheGeometric)
{
    for (const auto &[pf, frames] :
         {std::pair{1e-3, 400ULL}, std::pair{3e-2, 20ULL}}) {
        std::uint64_t samples = 0;
        const double distance =
            gapKsDistance(modelAt(0x9e0, pf), frames, samples);
        EXPECT_GE(samples, 5000u) << "pf " << pf;
        // Kolmogorov's 0.1% critical value; conservative for a
        // discrete distribution.
        EXPECT_LT(distance,
                  1.95 / std::sqrt(static_cast<double>(samples)))
            << "pf " << pf << " over " << samples << " gaps";
    }
}

TEST(FaultModel, FrameCellsAscendAndAreStable)
{
    const FaultModel faults = modelAt(42, 1e-2);
    for (Pfn pfn = 0; pfn < 64; ++pfn) {
        const std::vector<std::uint32_t> cells = cellsOfFrame(faults, pfn);
        ASSERT_FALSE(cells.empty());
        for (std::size_t i = 1; i < cells.size(); ++i)
            EXPECT_LT(cells[i - 1], cells[i]);
        EXPECT_LT(cells.back(), FaultModel::kFrameCells);
        // A pure function of (seed, pf, frame): the same cells again,
        // from another model of the same module, appended after
        // another frame's.
        EXPECT_EQ(cellsOfFrame(faults, pfn), cells);
        std::vector<std::uint32_t> appended = cellsOfFrame(faults, 999);
        const std::size_t other = appended.size();
        modelAt(42, 1e-2).frameCells(pfnToAddr(pfn), appended);
        EXPECT_TRUE(std::equal(appended.begin() + other,
                               appended.end(), cells.begin(),
                               cells.end()));
    }
    EXPECT_NE(cellsOfFrame(modelAt(43, 1e-2), 0), cellsOfFrame(faults, 0));
}

TEST(FaultModel, FrameCellsAtTheEndsOfPf)
{
    EXPECT_TRUE(cellsOfFrame(modelAt(5, 0.0), 7).empty());

    const std::vector<std::uint32_t> all = cellsOfFrame(modelAt(5, 1.0), 7);
    ASSERT_EQ(all.size(), FaultModel::kFrameCells);
    for (std::uint32_t cell = 0; cell < all.size(); ++cell)
        EXPECT_EQ(all[cell], cell);

    // Gaps this long overflow every integer type as doubles; the
    // frame end is compared before any conversion (the ubsan build
    // checks float-cast-overflow).
    const FaultModel rare = modelAt(5, 1e-9);
    std::size_t cells = 0;
    for (Pfn pfn = 0; pfn < 1024; ++pfn)
        cells += cellsOfFrame(rare, pfn).size();
    EXPECT_LE(cells, 2u);
}

TEST(FaultModel, DirectionDistributionInTrueCells)
{
    FaultModel faults(11, ErrorStats{});
    std::uint64_t down = 0;
    const std::uint64_t cells = 100'000;
    for (std::uint64_t i = 0; i < cells; ++i) {
        if (faults.flipDirection(i, 0, CellType::True) ==
            FlipDirection::OneToZero) {
            ++down;
        }
    }
    // 99.8% of vulnerable true-cells flip downward.
    EXPECT_NEAR(static_cast<double>(down) / cells, 0.998, 0.002);
}

TEST(FaultModel, AntiCellsMirrorDirections)
{
    FaultModel faults(11, ErrorStats{});
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const FlipDirection in_true =
            faults.flipDirection(i, 0, CellType::True);
        const FlipDirection in_anti =
            faults.flipDirection(i, 0, CellType::Anti);
        EXPECT_NE(in_true == FlipDirection::OneToZero,
                  in_anti == FlipDirection::OneToZero);
    }
}

/** Address and bit of each vulnerable cell of @p frames frames. */
std::vector<std::pair<Addr, unsigned>>
vulnerableCellsOf(const FaultModel &faults, Pfn first, Pfn frames)
{
    std::vector<std::pair<Addr, unsigned>> out;
    for (Pfn pfn = first; pfn < first + frames; ++pfn) {
        for (const std::uint32_t cell : cellsOfFrame(faults, pfn))
            out.emplace_back(pfnToAddr(pfn) + cell / 8, cell % 8);
    }
    return out;
}

/**
 * Exact two-sided binomial test: twice the smaller tail of
 * Binomial(@p n, @p p) at @p k, capped at 1.
 */
double
binomialTwoSidedP(std::uint64_t k, std::uint64_t n, double p)
{
    double lower = 0.0; // P(X <= k)
    double upper = 0.0; // P(X >= k)
    for (std::uint64_t j = 0; j <= n; ++j) {
        const double pmf = std::exp(
            std::lgamma(n + 1.0) - std::lgamma(j + 1.0) -
            std::lgamma(n - j + 1.0) + j * std::log(p) +
            (n - j) * std::log1p(-p));
        lower += j <= k ? pmf : 0.0;
        upper += j >= k ? pmf : 0.0;
    }
    return std::min(1.0, 2.0 * std::min(lower, upper));
}

TEST(FaultModel, TripThresholdsAreUniform)
{
    // A pass of intensity i trips the vulnerable cells whose threshold
    // is at most i, so a single-sided pass trips a singleSidedIntensity
    // share of them only if thresholds are U[0,1).
    const FaultModel faults = modelAt(0x7e5, 3e-2);
    std::vector<double> thresholds;
    for (const auto &[addr, bit] : vulnerableCellsOf(faults, 0, 64))
        thresholds.push_back(faults.tripThreshold(addr, bit));
    std::sort(thresholds.begin(), thresholds.end());
    const double n = static_cast<double>(thresholds.size());
    double distance = 0.0;
    for (std::size_t i = 0; i < thresholds.size(); ++i) {
        distance = std::max({distance, (i + 1.0) / n - thresholds[i],
                             thresholds[i] - i / n});
    }
    EXPECT_GE(thresholds.size(), 50000u);
    // Kolmogorov's 0.1% critical value.
    EXPECT_LT(distance, 1.95 / std::sqrt(n)) << "over " << n << " cells";
}

TEST(FaultModel, DominantDirectionShareMatchesP10)
{
    // Among a cell type's vulnerable cells, the count leaking in the
    // type's direction ('1'->'0' in true cells, '0'->'1' in
    // anti-cells) is Binomial(cells, p10True()).  Each type is drawn
    // from its own frames.
    const FaultModel faults = modelAt(0xd1e, 3e-2);
    Pfn first = 0;
    for (const auto &[type, leak] :
         {std::pair{CellType::True, FlipDirection::OneToZero},
          std::pair{CellType::Anti, FlipDirection::ZeroToOne}}) {
        const auto cells = vulnerableCellsOf(faults, first, 256);
        first += 256;
        std::uint64_t dominant = 0;
        for (const auto &[addr, bit] : cells)
            dominant += faults.flipDirection(addr, bit, type) == leak;
        EXPECT_GE(cells.size(), 200000u);
        EXPECT_GT(binomialTwoSidedP(dominant, cells.size(),
                                    faults.stats().p10True()),
                  1e-3)
            << dominant << " of " << cells.size() << " cells in "
            << (type == CellType::True ? "true" : "anti") << " rows";
    }
}

TEST(FaultModel, StablePropertiesAcrossQueries)
{
    FaultModel faults(42, ErrorStats{});
    for (std::uint64_t i = 0; i < 1000; ++i) {
        EXPECT_EQ(vulnerable(faults, i, 1), vulnerable(faults, i, 1));
        EXPECT_EQ(faults.tripThreshold(i, 1),
                  faults.tripThreshold(i, 1));
    }
}

TEST(FaultModel, RetentionScalesWithTemperature)
{
    FaultModel faults(42, ErrorStats{});
    const SimTime warm = faults.retentionTime(1000, 0, 20.0);
    const SimTime cold = faults.retentionTime(1000, 0, -40.0);
    EXPECT_GT(warm, 100 * milliseconds);
    // -40C is 60 degrees colder: retention should be ~2^6 = 64x.
    EXPECT_NEAR(static_cast<double>(cold) / warm, 64.0, 1.0);
}

TEST(Module, CellTypeFollowsLayout)
{
    DramModule module(smallConfig());
    // Rows 0..63 of bank 0 are true, 64..127 anti (period 64).
    EXPECT_EQ(module.rowCellType(0, 0), CellType::True);
    EXPECT_EQ(module.rowCellType(0, 63), CellType::True);
    EXPECT_EQ(module.rowCellType(0, 64), CellType::Anti);
    // cellTypeAt agrees with locate + rowCellType.
    const Addr addr = 70 * 128 * KiB; // row 70 of bank 0
    EXPECT_EQ(module.cellTypeAt(addr), CellType::Anti);
}

TEST(Module, DecayDrivesTowardDischargedValue)
{
    DramModule module(smallConfig());
    // Fill one true-cell row page and one anti-cell row page.
    const Addr true_addr = 0;
    const Addr anti_addr = 64 * 128 * KiB;
    for (unsigned i = 0; i < pageSize; ++i) {
        module.writeByte(true_addr + i, 0xff);
        module.writeByte(anti_addr + i, 0x00);
    }
    module.powerOff(600 * seconds);

    // Essentially everything decays after 10 minutes.
    std::uint64_t true_ones = 0;
    std::uint64_t anti_zeros = 0;
    for (unsigned i = 0; i < pageSize; ++i) {
        true_ones += popcount(module.readByte(true_addr + i));
        anti_zeros += 8 - popcount(module.readByte(anti_addr + i));
    }
    EXPECT_LT(true_ones, pageSize / 100);
    EXPECT_LT(anti_zeros, pageSize / 100);
    EXPECT_GT(module.stats().value("decayedBits"), 0u);
}

TEST(Module, DecayMatchesPerCellRetention)
{
    DramModule module(smallConfig());
    // Random data in one true-cell frame and one anti-cell frame, so
    // both charged values sit in every word.
    const Addr frames[] = {0, 64 * 128 * KiB};
    Rng rng(11);
    std::vector<std::uint8_t> before;
    for (const Addr base : frames) {
        for (unsigned i = 0; i < pageSize; ++i) {
            before.push_back(static_cast<std::uint8_t>(rng.next()));
            module.writeByte(base + i, before.back());
        }
    }
    // About the median retention at 20 C: roughly half the charged
    // cells leak.
    const SimTime off = 1500 * milliseconds;
    module.powerOff(off);

    std::uint64_t leaked = 0;
    std::size_t index = 0;
    for (const Addr base : frames) {
        const bool discharged = dischargedBit(module.cellTypeAt(base));
        for (unsigned i = 0; i < pageSize; ++i, ++index) {
            const std::uint8_t now = module.readByte(base + i);
            for (unsigned bit = 0; bit < 8; ++bit) {
                const bool was = (before[index] >> bit) & 1;
                const bool leaks =
                    was != discharged &&
                    module.faults().retentionTime(base + i, bit, 20.0) <
                        off;
                leaked += leaks;
                ASSERT_EQ(((now >> bit) & 1) != 0,
                          leaks ? discharged : was)
                    << "addr " << base + i << " bit " << bit;
            }
        }
    }
    EXPECT_GT(leaked, pageSize);
    EXPECT_EQ(module.stats().value("decayedBits"), leaked);
}

TEST(Module, PowerOffsDoNotAccumulate)
{
    DramModule module(smallConfig());
    for (unsigned i = 0; i < pageSize; ++i)
        module.writeByte(i, 0xff);
    // Each power-off is under the 128 ms retention floor; together
    // they are over it, and a few percent of the cells would leak.
    module.powerOff(100 * milliseconds);
    module.powerOff(100 * milliseconds);
    for (unsigned i = 0; i < pageSize; ++i)
        ASSERT_EQ(module.readByte(i), 0xff) << "byte " << i;
    EXPECT_EQ(module.stats().value("decayedBits"), 0u);
}

TEST(Module, RemapRequiresSameCellType)
{
    DramModule module(smallConfig());
    // Row 0 (true) remapped to row 10 (true): allowed.
    module.remapRow(0, 0, 10);
    EXPECT_EQ(module.deviceRow(0, 0), 10u);
    EXPECT_EQ(module.logicalRow(0, 10), 0u);
    // Swap semantics: device row 0 now hosts logical row 10.
    EXPECT_EQ(module.logicalRow(0, 0), 10u);
    EXPECT_EQ(module.deviceRow(0, 10), 0u);
    // Row 1 (true) to row 64 (anti): rejected.
    EXPECT_THROW(module.remapRow(0, 1, 64), FatalError);
    EXPECT_EQ(module.remapCount(), 1u);
}

TEST(Module, RemapPreservesCellTypeView)
{
    DramModule module(smallConfig());
    module.remapRow(0, 0, 10);
    EXPECT_EQ(module.rowCellType(0, 0), CellType::True);
}

} // namespace
} // namespace ctamem::dram
