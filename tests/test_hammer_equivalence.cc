/**
 * @file
 * Equivalence properties of the mask-based disturbance engine.
 *
 * Three contracts pin the API redesign down:
 *  - the word-granular FaultModel accessors are bit-identical to 64
 *    scalar accessor calls;
 *  - the bit-parallel hammer path produces exactly the flips of the
 *    retained scalar reference implementation, cell for cell, on
 *    randomized modules and data patterns; and
 *  - every registry defense sees the same decision stream through the
 *    DisturbanceEvent observer interface that the old positional
 *    callback carried.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <tuple>
#include <vector>

#include "defense/observers.hh"
#include "defense/softtrr.hh"
#include "dram/hammer.hh"
#include "dram/module.hh"
#include "hammer_reference.hh"

namespace ctamem::dram {
namespace {

/** Small module so the cell-at-a-time reference stays fast. */
DramConfig
equivConfig(std::uint64_t seed, double pf)
{
    DramConfig config;
    config.capacity = 4 * MiB;
    config.rowBytes = 16 * KiB;
    config.banks = 2;
    config.cellMap = CellTypeMap::alternating(4);
    config.errors.pf = pf;
    config.seed = seed;
    return config;
}

/** Identical pseudo-random content for a row of both modules. */
void
fillRowRandom(DramModule &a, DramModule &b, std::uint64_t bank,
              std::uint64_t row, std::uint64_t pattern_seed)
{
    const std::uint64_t row_bytes = a.geometry().rowBytes();
    const Addr base =
        a.geometry().address(Location{bank, row, 0});
    std::mt19937_64 rng(pattern_seed);
    std::vector<std::uint8_t> buffer(row_bytes);
    for (auto &byte : buffer)
        byte = static_cast<std::uint8_t>(rng());
    a.write(base, buffer.data(), buffer.size());
    b.write(base, buffer.data(), buffer.size());
}

/** Events as an order-free canonical set. */
std::vector<std::tuple<Addr, unsigned, int>>
canonical(const std::vector<FlipEvent> &events)
{
    std::vector<std::tuple<Addr, unsigned, int>> out;
    out.reserve(events.size());
    for (const FlipEvent &event : events)
        out.emplace_back(event.addr, event.bit,
                         static_cast<int>(event.dir));
    std::sort(out.begin(), out.end());
    return out;
}

/** Byte-compare the full stores of two modules. */
void
expectStoresEqual(const DramModule &a, const DramModule &b)
{
    const std::uint64_t capacity = a.geometry().capacity();
    std::vector<std::uint8_t> left(64 * KiB), right(64 * KiB);
    for (std::uint64_t off = 0; off < capacity; off += left.size()) {
        a.read(off, left.data(), left.size());
        b.read(off, right.data(), right.size());
        ASSERT_EQ(left, right) << "stores diverge near 0x" << std::hex
                               << off;
    }
}

TEST(FaultWordAccessors, MatchScalarCalls)
{
    for (const std::uint64_t seed : {1ULL, 42ULL, 0xdeadULL}) {
        for (const double pf : {1e-3, 3e-2}) {
            ErrorStats stats;
            stats.pf = pf;
            const FaultModel model(seed, stats);
            for (const Addr addr :
                 {Addr{0}, Addr{8}, Addr{128 * KiB}, Addr{1} << 30}) {
                std::uint64_t vuln = 0, dir_true = 0, dir_anti = 0,
                              trip = 0;
                for (unsigned k = 0; k < 64; ++k) {
                    const Addr byte = addr + k / 8;
                    const unsigned bit = k % 8;
                    vuln |= static_cast<std::uint64_t>(
                                model.vulnerable(byte, bit))
                            << k;
                    if (!model.vulnerable(byte, bit))
                        continue;
                    dir_true |=
                        static_cast<std::uint64_t>(
                            model.flipDirection(byte, bit,
                                                CellType::True) ==
                            FlipDirection::OneToZero)
                        << k;
                    dir_anti |=
                        static_cast<std::uint64_t>(
                            model.flipDirection(byte, bit,
                                                CellType::Anti) ==
                            FlipDirection::OneToZero)
                        << k;
                    trip |= static_cast<std::uint64_t>(
                                model.tripThreshold(byte, bit) <=
                                RowHammerEngine::singleSidedIntensity)
                            << k;
                }
                EXPECT_EQ(model.vulnMaskWord(addr), vuln);
                EXPECT_EQ(model.flipDirMaskWord(addr, CellType::True,
                                                vuln),
                          dir_true);
                EXPECT_EQ(model.flipDirMaskWord(addr, CellType::Anti,
                                                vuln),
                          dir_anti);
                EXPECT_EQ(
                    model.tripMaskWord(
                        addr, RowHammerEngine::singleSidedIntensity,
                        vuln),
                    trip);
            }
        }
    }
}

TEST(FaultWordAccessors, LaneRestrictionZeroesClearedLanes)
{
    ErrorStats stats;
    stats.pf = 0.5; // dense, so lane masking is visible
    const FaultModel model(7, stats);
    const Addr addr = 4096;
    const std::uint64_t full = model.vulnMaskWord(addr);
    for (const std::uint64_t lanes :
         {0ULL, 0xffULL, 0xf0f0f0f0f0f0f0f0ULL, ~0ULL}) {
        EXPECT_EQ(model.vulnMaskWord(addr, lanes), full & lanes);
        EXPECT_EQ(model.flipDirMaskWord(addr, CellType::True, lanes) &
                      ~lanes,
                  0u);
        // Trip thresholds are independent of vulnerability; at
        // intensity 1.0 every requested lane trips.
        EXPECT_EQ(model.tripMaskWord(addr, 1.0, lanes), lanes);
    }
}

TEST(FaultWordAccessors, BulkRowScanMatchesPerWordCalls)
{
    ErrorStats stats;
    stats.pf = 2e-3;
    const FaultModel model(99, stats);
    constexpr std::size_t words = 512;
    std::vector<std::uint64_t> row(words);
    const Addr base = 3 * 128 * KiB;
    model.vulnMaskRow(base, words, row.data());
    for (std::size_t w = 0; w < words; ++w)
        ASSERT_EQ(row[w], model.vulnMaskWord(base + w * 8))
            << "word " << w;
}

TEST(HammerEquivalence, RandomizedModulesMatchScalarReference)
{
    std::mt19937_64 meta(0xe9001);
    for (int round = 0; round < 6; ++round) {
        const std::uint64_t seed = meta();
        const double pf = (round % 2) ? 5e-3 : 2e-2;
        DramModule masked(equivConfig(seed, pf));
        DramModule scalar(equivConfig(seed, pf));
        RowHammerEngine engine(masked);
        engine.setRecordEvents(true);

        const std::uint64_t bank = round % 2;
        const std::uint64_t victim = 3 + round; // span stays in range
        // Mixed data: random rows, an all-ones row, an untouched row
        // (fill-pattern flips must match too).
        for (std::uint64_t row = victim - 1; row <= victim + 2;
             ++row) {
            if (row == victim + 1)
                continue; // left untouched on purpose
            fillRowRandom(masked, scalar, bank, row, meta());
        }

        const HammerResult fast = engine.hammerDoubleSided(bank,
                                                           victim);
        const HammerResult ref =
            reference::hammerDoubleSidedScalar(scalar, bank, victim);

        EXPECT_EQ(fast.flips10, ref.flips10) << "round " << round;
        EXPECT_EQ(fast.flips01, ref.flips01) << "round " << round;
        EXPECT_EQ(canonical(fast.events), canonical(ref.events))
            << "round " << round;
        expectStoresEqual(masked, scalar);
    }
}

TEST(HammerEquivalence, SingleSidedAndRepeatedPassesMatch)
{
    DramModule masked(equivConfig(0xabcd, 1e-2));
    DramModule scalar(equivConfig(0xabcd, 1e-2));
    RowHammerEngine engine(masked);
    engine.setRecordEvents(true);
    std::mt19937_64 patterns(0xe9002);
    for (std::uint64_t row = 4; row <= 8; ++row)
        fillRowRandom(masked, scalar, 0, row, patterns());

    // Repeated passes consume flippable cells: later passes must see
    // the same shrinking flip set in both implementations.
    for (int pass = 0; pass < 3; ++pass) {
        const HammerResult fast = engine.hammerRow(0, 6);
        const HammerResult ref =
            reference::hammerRowScalar(scalar, 0, 6);
        EXPECT_EQ(fast.flips10, ref.flips10) << "pass " << pass;
        EXPECT_EQ(fast.flips01, ref.flips01) << "pass " << pass;
        EXPECT_EQ(canonical(fast.events), canonical(ref.events));
        if (pass > 0)
            EXPECT_EQ(fast.total(), 0u)
                << "single-sided flips exhaust after one pass";
    }
    expectStoresEqual(masked, scalar);
}

TEST(HammerEquivalence, RemappedRowsStayEquivalent)
{
    DramModule masked(equivConfig(0x5150, 1e-2));
    DramModule scalar(equivConfig(0x5150, 1e-2));
    // Swap like-for-like rows (alternating period 4: rows 2 and 10
    // share a cell type) in both modules before hammering.
    masked.remapRow(0, 2, 10);
    scalar.remapRow(0, 2, 10);
    RowHammerEngine engine(masked);
    engine.setRecordEvents(true);
    std::mt19937_64 patterns(0xe9003);
    for (std::uint64_t row = 0; row <= 12; ++row)
        fillRowRandom(masked, scalar, 0, row, patterns());

    const HammerResult fast = engine.hammerDoubleSided(0, 2);
    const HammerResult ref =
        reference::hammerDoubleSidedScalar(scalar, 0, 2);
    EXPECT_EQ(fast.flips10, ref.flips10);
    EXPECT_EQ(fast.flips01, ref.flips01);
    EXPECT_EQ(canonical(fast.events), canonical(ref.events));
    expectStoresEqual(masked, scalar);
}

/** Records every DisturbanceEvent it sees; never suppresses. */
struct RecordingObserver : DisturbanceObserver
{
    std::vector<DisturbanceEvent> seen;
    bool
    onHammer(const DisturbanceEvent &event) override
    {
        seen.push_back(event);
        return false;
    }
};

TEST(ObserverMigration, EngineAnnouncesFullEvent)
{
    DramModule module(equivConfig(11, 5e-3));
    RecordingObserver observer;
    RowHammerEngine engine(module, &observer);

    // A double-sided pass announces both aggressors, each with the
    // pair's full disturbance reach.
    engine.hammerDoubleSided(1, 6);
    ASSERT_EQ(observer.seen.size(), 2u);
    EXPECT_EQ(observer.seen[0].aggressorRow, 5u);
    EXPECT_EQ(observer.seen[1].aggressorRow, 7u);
    for (const DisturbanceEvent &event : observer.seen) {
        EXPECT_EQ(event.bank, 1u);
        EXPECT_EQ(event.activations,
                  RowHammerEngine::activationsPerPass);
        EXPECT_EQ(event.victimFirst, 4u);
        EXPECT_EQ(event.victimLast, 8u);
        EXPECT_EQ(event.engine, &engine);
        // The lazy per-row summary resolves through the engine.
        EXPECT_EQ(event.vulnerableCellsIn(6),
                  engine.rowProfile(1, 6).vulnerableCells);
    }

    engine.hammerRow(0, 3);
    ASSERT_EQ(observer.seen.size(), 3u);
    EXPECT_EQ(observer.seen.back().bank, 0u);
    EXPECT_EQ(observer.seen.back().aggressorRow, 3u);
    EXPECT_EQ(observer.seen.back().victimFirst, 2u);
    EXPECT_EQ(observer.seen.back().victimLast, 4u);
}

/** Suppresses everything, like a perfect target-row refresh. */
struct SuppressingObserver : DisturbanceObserver
{
    bool
    onHammer(const DisturbanceEvent &) override
    {
        return true;
    }
};

TEST(ObserverMigration, SuppressionNeutralizesThePass)
{
    DramModule module(equivConfig(11, 5e-3));
    SuppressingObserver observer;
    RowHammerEngine engine(module, &observer);
    std::vector<std::uint8_t> ones(module.geometry().rowBytes(),
                                   0xff);
    module.write(0, ones.data(), ones.size());

    const HammerResult result = engine.hammerDoubleSided(0, 1);
    EXPECT_TRUE(result.suppressed);
    EXPECT_EQ(result.total(), 0u);
}

TEST(ObserverMigration, ParaDecidesOnActivationCount)
{
    // p = 0: no activation can trigger the neighbour refresh.
    defense::ParaObserver never(0.0);
    EXPECT_FALSE(never.onHammer({0, 10, 1'300'000, 9, 11}));
    // p = 1: the first activation already refreshes the victims.
    defense::ParaObserver always(1.0);
    EXPECT_TRUE(always.onHammer({0, 10, 1, 9, 11}));
    EXPECT_EQ(always.mitigations(), 1u);
}

TEST(ObserverMigration, RefreshBoostIgnoresRowIdentity)
{
    // factor 1: the full hammer window always fits, nothing is ever
    // suppressed no matter which row the event names.
    defense::RefreshBoostObserver none(1);
    for (std::uint64_t row = 0; row < 32; ++row)
        EXPECT_FALSE(none.onHammer({row % 4, row, 1'300'000,
                                    row ? row - 1 : 0, row + 1}));
    EXPECT_EQ(none.mitigations(), 0u);
}

TEST(ObserverMigration, AnvilAccumulatesPerAggressorRow)
{
    defense::AnvilObserver anvil(/*threshold=*/1'000'000,
                                 /*window_passes=*/100);
    // Below threshold: same row twice at 400k stays quiet...
    EXPECT_FALSE(anvil.onHammer({0, 42, 400'000, 41, 43}));
    EXPECT_FALSE(anvil.onHammer({0, 42, 400'000, 41, 43}));
    // ...a different row does not inherit the count...
    EXPECT_FALSE(anvil.onHammer({0, 43, 400'000, 42, 44}));
    // ...and the third burst on row 42 crosses it.
    EXPECT_TRUE(anvil.onHammer({0, 42, 400'000, 41, 43}));
    EXPECT_TRUE(anvil.triggered());
    EXPECT_EQ(anvil.detections(), 1u);
}

TEST(ObserverMigration, SoftTrrCountsBankRowKeys)
{
    defense::SoftTrrObserver trr(/*threshold=*/1'000'000,
                                 /*max_tracked=*/2);
    // Same device row accumulates across events until the target-row
    // refresh fires and resets the counter.
    EXPECT_FALSE(trr.onHammer({0, 7, 600'000, 6, 8}));
    EXPECT_TRUE(trr.onHammer({0, 7, 600'000, 6, 8}));
    EXPECT_EQ(trr.mitigations(), 1u);
    // Same row number in another bank is a distinct key.
    EXPECT_FALSE(trr.onHammer({1, 7, 600'000, 6, 8}));
    EXPECT_EQ(trr.trackedRows(), 2u);
    // A third key evicts the coldest slot from the full table.
    EXPECT_FALSE(trr.onHammer({0, 9, 100, 8, 10}));
    EXPECT_EQ(trr.evictions(), 1u);
}

} // namespace
} // namespace ctamem::dram
