/**
 * @file
 * Equivalence properties of the mask-based disturbance engine.
 *
 * Three contracts pin the engine down:
 *  - the bit-parallel hammer path produces exactly the flips of the
 *    retained scalar reference implementation, cell for cell, on
 *    randomized modules and data patterns;
 *  - a mitigation that voids one aggressor's burst drops only that
 *    aggressor's disturbance; and
 *  - every table defense decides on the bank, row and activation count
 *    a DisturbanceEvent carries.
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

TEST(HammerEquivalence, RandomizedModulesMatchScalarReference)
{
    std::mt19937_64 meta(0xe9001);
    for (int round = 0; round < 6; ++round) {
        const std::uint64_t seed = meta();
        const double pf = (round % 2) ? 5e-3 : 2e-2;
        DramModule masked(equivConfig(seed, pf));
        DramModule scalar(equivConfig(seed, pf));
        RowHammerEngine engine(masked);
        std::vector<FlipEvent> events;
        engine.setEventSink(&events);

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
        const reference::ScalarResult ref =
            reference::hammerDoubleSidedScalar(scalar, bank, victim);

        EXPECT_EQ(fast.flips10, ref.flips10) << "round " << round;
        EXPECT_EQ(fast.flips01, ref.flips01) << "round " << round;
        EXPECT_EQ(canonical(events), canonical(ref.events))
            << "round " << round;
        expectStoresEqual(masked, scalar);
    }
}

TEST(HammerEquivalence, SingleSidedAndRepeatedPassesMatch)
{
    DramModule masked(equivConfig(0xabcd, 1e-2));
    DramModule scalar(equivConfig(0xabcd, 1e-2));
    RowHammerEngine engine(masked);
    std::vector<FlipEvent> events;
    engine.setEventSink(&events);
    std::mt19937_64 patterns(0xe9002);
    for (std::uint64_t row = 4; row <= 8; ++row)
        fillRowRandom(masked, scalar, 0, row, patterns());

    // Repeated passes consume flippable cells: later passes must see
    // the same shrinking flip set in both implementations.
    for (int pass = 0; pass < 3; ++pass) {
        events.clear();
        const HammerResult fast = engine.hammerRow(0, 6);
        const reference::ScalarResult ref =
            reference::hammerRowScalar(scalar, 0, 6);
        EXPECT_EQ(fast.flips10, ref.flips10) << "pass " << pass;
        EXPECT_EQ(fast.flips01, ref.flips01) << "pass " << pass;
        EXPECT_EQ(canonical(events), canonical(ref.events));
        if (pass > 0) {
            EXPECT_EQ(fast.total(), 0u)
                << "single-sided flips exhaust after one pass";
        }
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
    std::vector<FlipEvent> events;
    engine.setEventSink(&events);
    std::mt19937_64 patterns(0xe9003);
    for (std::uint64_t row = 0; row <= 12; ++row)
        fillRowRandom(masked, scalar, 0, row, patterns());

    const HammerResult fast = engine.hammerDoubleSided(0, 2);
    const reference::ScalarResult ref =
        reference::hammerDoubleSidedScalar(scalar, 0, 2);
    EXPECT_EQ(fast.flips10, ref.flips10);
    EXPECT_EQ(fast.flips01, ref.flips01);
    EXPECT_EQ(canonical(events), canonical(ref.events));
    expectStoresEqual(masked, scalar);
}

TEST(HammerEquivalence, SaturatedTimedWindowMatchesUntimedPasses)
{
    // A timed window in which each aggressor gets the
    // activationsPerPass its untimed event announces: paired pressure
    // reaches doubleSidedIntensity on the sandwiched victim, one-sided
    // pressure singleSidedIntensity on the outer rows, so both paths
    // flip exactly the same cells.
    constexpr std::uint64_t bank = 1;
    constexpr std::uint64_t victim = 9;
    constexpr std::uint64_t acts = RowHammerEngine::activationsPerPass;
    for (const bool double_sided : {true, false}) {
        DramModule untimed(equivConfig(0x5a7, 1e-2));
        DramModule timed(equivConfig(0x5a7, 1e-2));
        std::mt19937_64 patterns(0xe9004);
        for (std::uint64_t row = victim - 3; row <= victim + 3; ++row)
            fillRowRandom(untimed, timed, bank, row, patterns());
        RowHammerEngine untimed_engine(untimed);
        RowHammerEngine timed_engine(timed);
        std::vector<FlipEvent> untimed_events;
        std::vector<FlipEvent> timed_events;
        untimed_engine.setEventSink(&untimed_events);
        timed_engine.setEventSink(&timed_events);

        HammerResult expected;
        HammerResult got;
        if (double_sided) {
            expected = untimed_engine.hammerDoubleSided(bank, victim);
            timed_engine.activate(bank, victim - 1, acts, 0, got);
            timed_engine.activate(bank, victim + 1, acts, 1, got);
        } else {
            expected = untimed_engine.hammerRow(bank, victim);
            timed_engine.activate(bank, victim, acts, 0, got);
        }
        timed_engine.drainPressure(bank, got);

        EXPECT_GT(expected.total(), 0u) << "double " << double_sided;
        EXPECT_EQ(got.flips10, expected.flips10)
            << "double " << double_sided;
        EXPECT_EQ(got.flips01, expected.flips01)
            << "double " << double_sided;
        EXPECT_EQ(canonical(timed_events), canonical(untimed_events))
            << "double " << double_sided;
        expectStoresEqual(untimed, timed);
    }
}

/** Voids every burst on one device row, and only those. */
struct RowVoidingObserver : DisturbanceObserver
{
    std::uint64_t voided;
    explicit RowVoidingObserver(std::uint64_t row) : voided(row) {}
    bool
    onHammer(const DisturbanceEvent &event) override
    {
        return event.aggressorRow == voided;
    }
};

TEST(HammerEquivalence, VoidedAggressorLeavesItsPartnersSingleSidedPass)
{
    // Voiding the burst on victim - 1 leaves the burst on victim + 1
    // standing, so the double-sided pass flips exactly the cells a
    // single-sided pass on victim + 1 flips, and reports the
    // mitigation.
    constexpr std::uint64_t bank = 1;
    constexpr std::uint64_t victim = 9;
    DramModule doubled(equivConfig(0x5a7, 1e-2));
    DramModule single(equivConfig(0x5a7, 1e-2));
    std::mt19937_64 patterns(0xe9005);
    for (std::uint64_t row = victim - 3; row <= victim + 3; ++row)
        fillRowRandom(doubled, single, bank, row, patterns());
    RowVoidingObserver observer(victim - 1);
    RowHammerEngine doubled_engine(doubled, &observer);
    RowHammerEngine single_engine(single);
    std::vector<FlipEvent> doubled_events;
    std::vector<FlipEvent> single_events;
    doubled_engine.setEventSink(&doubled_events);
    single_engine.setEventSink(&single_events);

    const HammerResult got =
        doubled_engine.hammerDoubleSided(bank, victim);
    const HammerResult expected =
        single_engine.hammerRow(bank, victim + 1);

    EXPECT_TRUE(got.suppressed);
    EXPECT_GT(expected.total(), 0u);
    EXPECT_EQ(got.flips10, expected.flips10);
    EXPECT_EQ(got.flips01, expected.flips01);
    EXPECT_EQ(canonical(doubled_events), canonical(single_events));
    expectStoresEqual(doubled, single);
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

    // A double-sided pass announces both aggressors.
    engine.hammerDoubleSided(1, 6);
    ASSERT_EQ(observer.seen.size(), 2u);
    EXPECT_EQ(observer.seen[0].aggressorRow, 5u);
    EXPECT_EQ(observer.seen[1].aggressorRow, 7u);
    for (const DisturbanceEvent &event : observer.seen) {
        EXPECT_EQ(event.bank, 1u);
        EXPECT_EQ(event.activations,
                  RowHammerEngine::activationsPerPass);
    }

    engine.hammerRow(0, 3);
    ASSERT_EQ(observer.seen.size(), 3u);
    EXPECT_EQ(observer.seen.back().bank, 0u);
    EXPECT_EQ(observer.seen.back().aggressorRow, 3u);
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
    EXPECT_FALSE(never.onHammer({0, 10, 1'300'000}));
    // p = 1: the first activation already refreshes the victims.
    defense::ParaObserver always(1.0);
    EXPECT_TRUE(always.onHammer({0, 10, 1}));
    EXPECT_EQ(always.mitigations(), 1u);
}

TEST(ObserverMigration, RefreshBoostIgnoresRowIdentity)
{
    // factor 1: the full hammer window always fits, nothing is ever
    // suppressed no matter which row the event names.
    defense::RefreshBoostObserver none(1);
    for (std::uint64_t row = 0; row < 32; ++row)
        EXPECT_FALSE(none.onHammer({row % 4, row, 1'300'000}));
    EXPECT_EQ(none.mitigations(), 0u);
}

TEST(ObserverMigration, AnvilAccumulatesPerAggressorRow)
{
    defense::AnvilObserver anvil(/*threshold=*/1'000'000,
                                 /*window_passes=*/100);
    // Below threshold: same row twice at 400k stays quiet...
    EXPECT_FALSE(anvil.onHammer({0, 42, 400'000}));
    EXPECT_FALSE(anvil.onHammer({0, 42, 400'000}));
    // ...a different row does not inherit the count...
    EXPECT_FALSE(anvil.onHammer({0, 43, 400'000}));
    // ...and the third burst on row 42 crosses it.
    EXPECT_TRUE(anvil.onHammer({0, 42, 400'000}));
    EXPECT_TRUE(anvil.triggered());
    EXPECT_EQ(anvil.detections(), 1u);
}

TEST(ObserverMigration, SoftTrrCountsBankRowKeys)
{
    defense::SoftTrrObserver trr(/*threshold=*/1'000'000,
                                 /*max_tracked=*/2);
    // Same device row accumulates across events until the target-row
    // refresh fires and resets the counter.
    EXPECT_FALSE(trr.onHammer({0, 7, 600'000}));
    EXPECT_TRUE(trr.onHammer({0, 7, 600'000}));
    EXPECT_EQ(trr.mitigations(), 1u);
    // Same row number in another bank is a distinct key.
    EXPECT_FALSE(trr.onHammer({1, 7, 600'000}));
    EXPECT_EQ(trr.trackedRows(), 2u);
    // A third key evicts the coldest slot from the full table.
    EXPECT_FALSE(trr.onHammer({0, 9, 100}));
    EXPECT_EQ(trr.evictions(), 1u);
}

} // namespace
} // namespace ctamem::dram
