/**
 * @file
 * Unit and property tests for the RowHammer engine: flip directions
 * per cell type, intensity thresholds, victim selection, observer
 * suppression, templating stability, and the shared row-profile cache
 * (one of whose tests races threads, hence this suite's tsan label).
 */

#include <gtest/gtest.h>

#include <barrier>
#include <bit>
#include <memory>
#include <thread>
#include <vector>

#include "dram/hammer.hh"
#include "dram/module.hh"
#include "fault_oracle.hh"

namespace ctamem::dram {
namespace {

DramConfig
hammerConfig(double pf = 5e-3)
{
    DramConfig config;
    config.capacity = 64 * MiB;
    config.rowBytes = 128 * KiB;
    config.banks = 1;
    // Period 4 gives both cell types close together.
    config.cellMap = CellTypeMap::alternating(4);
    config.errors.pf = pf; // boosted so every row has many flips
    config.seed = 3;
    return config;
}

/** Fill a whole row with one byte value. */
void
fillRow(DramModule &module, std::uint64_t row, std::uint8_t value)
{
    std::vector<std::uint8_t> buffer(module.geometry().rowBytes(),
                                     value);
    module.write(row * module.geometry().rowBytes(), buffer.data(),
                 buffer.size());
}

TEST(Hammer, TrueCellVictimsFlipDownOnly)
{
    DramModule module(hammerConfig());
    RowHammerEngine engine(module);
    std::vector<FlipEvent> events; // this test inspects the flip list
    engine.setEventSink(&events);
    // The disturbance reaches the victim (row 1) and the outer
    // neighbours of the aggressors (row 3); fill them all with ones.
    for (std::uint64_t row = 0; row <= 3; ++row)
        fillRow(module, row, 0xff);

    // Rows 0..3 are true cells; double-sided hammer on victim row 1.
    const HammerResult result = engine.hammerDoubleSided(0, 1);
    EXPECT_GT(result.flips10, 0u);
    EXPECT_EQ(result.flips01, 0u); // all-ones data: only 1->0 possible
    for (const FlipEvent &event : events)
        EXPECT_EQ(event.dir, FlipDirection::OneToZero);
}

TEST(Hammer, TrueCellAllZeroDataRarelyFlips)
{
    DramModule module(hammerConfig());
    RowHammerEngine engine(module);
    fillRow(module, 1, 0x00);

    const HammerResult result = engine.hammerDoubleSided(0, 1);
    // 0->1 flips exist but at 0.2% of the vulnerable population.
    EXPECT_EQ(result.flips10, 0u);
    const std::uint64_t vulnerable =
        engine.rowProfile(0, 1).vulnerableCells();
    EXPECT_LT(result.flips01, vulnerable / 50);
}

TEST(Hammer, AntiCellVictimsFlipUp)
{
    DramModule module(hammerConfig());
    RowHammerEngine engine(module);
    // Rows 4..7 are anti-cells.
    fillRow(module, 5, 0x00);
    const HammerResult result = engine.hammerDoubleSided(0, 5);
    EXPECT_GT(result.flips01, 0u);
    EXPECT_EQ(result.flips10, 0u);
}

TEST(Hammer, DoubleSidedBeatsSingleSided)
{
    DramModule module(hammerConfig());
    RowHammerEngine engine(module);
    fillRow(module, 1, 0xff);
    const HammerResult double_sided = engine.hammerDoubleSided(0, 1);

    DramModule module2(hammerConfig());
    RowHammerEngine engine2(module2);
    fillRow(module2, 1, 0xff);
    fillRow(module2, 0, 0xff);
    // Single-sided on row 0 disturbs row 1 at lower intensity.
    const HammerResult single = engine2.hammerRow(0, 0);
    EXPECT_GT(double_sided.flips10, single.flips10);
}

TEST(Hammer, RepeatHammerIsIdempotentOnSameData)
{
    DramModule module(hammerConfig());
    RowHammerEngine engine(module);
    fillRow(module, 1, 0xff);
    const HammerResult first = engine.hammerDoubleSided(0, 1);
    const HammerResult second = engine.hammerDoubleSided(0, 1);
    EXPECT_GT(first.flips10, 0u);
    EXPECT_EQ(second.flips10, 0u); // already flipped
}

TEST(Hammer, TemplatingIsReproducible)
{
    // Same module seed => same flip locations (memory templating).
    auto run = [] {
        DramModule module(hammerConfig());
        RowHammerEngine engine(module);
        std::vector<FlipEvent> events;
        engine.setEventSink(&events);
        fillRow(module, 1, 0xff);
        engine.hammerDoubleSided(0, 1);
        return events;
    };
    const auto a = run();
    const auto b = run();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].addr, b[i].addr);
        EXPECT_EQ(a[i].bit, b[i].bit);
    }
}

TEST(Hammer, DifferentSeedDifferentTemplate)
{
    DramConfig config_a = hammerConfig();
    DramConfig config_b = hammerConfig();
    config_b.seed = 999;
    DramModule module_a(config_a);
    DramModule module_b(config_b);
    RowHammerEngine engine_a(module_a);
    RowHammerEngine engine_b(module_b);
    std::vector<FlipEvent> a;
    std::vector<FlipEvent> b;
    engine_a.setEventSink(&a);
    engine_b.setEventSink(&b);
    fillRow(module_a, 1, 0xff);
    fillRow(module_b, 1, 0xff);
    engine_a.hammerDoubleSided(0, 1);
    engine_b.hammerDoubleSided(0, 1);
    bool identical = a.size() == b.size();
    for (std::size_t i = 0; identical && i < a.size(); ++i)
        identical = a[i].addr == b[i].addr && a[i].bit == b[i].bit;
    EXPECT_FALSE(identical);
}

/** Observer that suppresses every pass and records calls. */
class SuppressAll : public DisturbanceObserver
{
  public:
    bool
    onHammer(const DisturbanceEvent &) override
    {
        ++calls;
        return true;
    }

    int calls = 0;
};

TEST(Hammer, ObserverCanSuppressFlips)
{
    DramModule module(hammerConfig());
    SuppressAll observer;
    RowHammerEngine engine(module, &observer);
    fillRow(module, 1, 0xff);
    const HammerResult result = engine.hammerDoubleSided(0, 1);
    EXPECT_TRUE(result.suppressed);
    EXPECT_EQ(result.total(), 0u);
    EXPECT_GT(observer.calls, 0);
    EXPECT_EQ(engine.stats().value("suppressedPasses"), 1u);
}

TEST(Hammer, VulnerableBitScanMatchesFaultModel)
{
    DramModule module(hammerConfig());
    RowHammerEngine engine(module);
    const FaultModel &faults = module.faults();
    // Row 1 holds true cells, row 5 anti-cells.
    for (const std::uint64_t row : {1u, 5u}) {
        const RowVulnProfile &profile = engine.rowProfile(0, row);
        const Addr base = row * 128 * KiB;
        const CellType type = module.cellMap().rowType(row);
        ASSERT_EQ(profile.cellTrips.size(), profile.cellBits.size());

        // The records are the row's vulnerable cells, frame by frame
        // in ascending order, each with its exact trip hash and its
        // direction and nothing else.
        const std::vector<std::uint64_t> cells =
            vulnerableCells(faults, base, 128 * KiB);
        ASSERT_EQ(cells.size(), profile.vulnerableCells());
        for (std::uint32_t i = 0; i < profile.vulnerableCells(); ++i) {
            const std::uint32_t offset = profile.cellBits[i];
            const Addr byte = base + offset / 8;
            const unsigned bit = offset % 8;
            EXPECT_EQ(offset, cells[i]);
            const std::uint64_t trip = profile.cellTrips[i];
            const double threshold = faults.tripThreshold(byte, bit);
            EXPECT_EQ(trip & RowVulnProfile::kTripHash,
                      static_cast<std::uint64_t>(threshold *
                                                 9007199254740992.0));
            EXPECT_EQ((trip & RowVulnProfile::kDir10) != 0,
                      faults.flipDirection(byte, bit, type) ==
                          FlipDirection::OneToZero);
            EXPECT_EQ(trip & ~(RowVulnProfile::kTripHash |
                               RowVulnProfile::kDir10),
                      0u);
        }

        // Expected count: rowBytes * 8 * pf.
        const double expected = 128.0 * KiB * 8 * 5e-3;
        EXPECT_NEAR(static_cast<double>(cells.size()), expected,
                    expected * 0.1);
    }
}

TEST(Hammer, EdgeRowFallsBackToSingleSided)
{
    // Victim at row 0 has no row above it: the pass is exactly one
    // single-sided pass on row 0, counted once, with the flips a
    // twin module's hammerRow(0, 0) induces.
    auto filled = [](DramModule &module) {
        fillRow(module, 0, 0xff);
        fillRow(module, 1, 0xff);
    };
    DramModule module(hammerConfig());
    RowHammerEngine engine(module);
    filled(module);
    const HammerResult result = engine.hammerDoubleSided(0, 0);
    EXPECT_EQ(engine.stats().value("passes"), 1u);

    DramModule twin(hammerConfig());
    RowHammerEngine twin_engine(twin);
    filled(twin);
    const HammerResult single = twin_engine.hammerRow(0, 0);
    EXPECT_GT(single.total(), 0u);
    EXPECT_EQ(result.flips10, single.flips10);
    EXPECT_EQ(result.flips01, single.flips01);
}

TEST(Hammer, RemappedRowMovesVictims)
{
    // After remapping, hammering the logical row disturbs the
    // neighbours of its *device* row — the CATT-bypass mechanism.
    DramConfig config = hammerConfig();
    config.cellMap = CellTypeMap::uniform(CellType::True);
    DramModule module(config);
    RowHammerEngine engine(module);
    std::vector<FlipEvent> events;
    engine.setEventSink(&events);

    // Remap logical row 100 to device row 200.
    module.remapRow(0, 100, 200);
    fillRow(module, 199, 0xff); // logical 199 == device 199
    fillRow(module, 201, 0xff);
    fillRow(module, 99, 0xff);
    fillRow(module, 101, 0xff);

    engine.hammerRow(0, 100);
    // Victims are device rows 199/201, not 99/101.
    for (const FlipEvent &event : events) {
        const std::uint64_t row =
            event.addr / module.geometry().rowBytes();
        EXPECT_TRUE(row == 199 || row == 201)
            << "unexpected victim row " << row;
    }
}

TEST(Hammer, ProfileCacheCountsHitsAndMisses)
{
    // Fresh seed so these keys cannot collide with profiles other
    // tests in this binary already cached.
    DramConfig config = hammerConfig();
    config.seed = 0x90f17eULL;
    DramModule module(config);

    const ProfileCacheStats before = profileCacheStats();
    RowHammerEngine first(module);
    for (std::uint64_t row = 0; row < 16; ++row)
        first.rowProfile(0, row);
    ProfileCacheStats after = profileCacheStats();
    EXPECT_EQ(after.misses - before.misses, 16u);
    EXPECT_EQ(after.hits, before.hits);

    // A second engine over the same module shares every profile.
    RowHammerEngine second(module);
    for (std::uint64_t row = 0; row < 16; ++row)
        second.rowProfile(0, row);
    after = profileCacheStats();
    EXPECT_EQ(after.hits - before.hits, 16u);
    EXPECT_EQ(after.misses - before.misses, 16u);
}

TEST(Hammer, ProfileCacheBuildsARowOnceForRacingFetches)
{
    // Four engines over identical modules fetch the same 64 rows from
    // behind a barrier, so every row is wanted by several threads at
    // once; the shared cache still builds each row exactly once.
    DramConfig config = hammerConfig();
    config.seed = 0x4ace5ULL;
    constexpr unsigned threads = 4;
    constexpr std::uint64_t rows = 64;
    std::vector<std::unique_ptr<DramModule>> modules;
    std::vector<std::unique_ptr<RowHammerEngine>> engines;
    for (unsigned t = 0; t < threads; ++t) {
        modules.push_back(std::make_unique<DramModule>(config));
        engines.push_back(
            std::make_unique<RowHammerEngine>(*modules.back()));
    }

    const ProfileCacheStats before = profileCacheStats();
    std::barrier start(threads);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            start.arrive_and_wait();
            for (std::uint64_t row = 0; row < rows; ++row)
                engines[t]->rowProfile(0, row);
        });
    }
    for (std::thread &worker : workers)
        worker.join();
    const ProfileCacheStats after = profileCacheStats();
    EXPECT_EQ(after.misses - before.misses, rows);
    EXPECT_EQ(after.hits - before.hits, (threads - 1) * rows);
}

TEST(Hammer, ProfileCacheShrinkEvictsToCapacity)
{
    DramConfig config = hammerConfig();
    config.seed = 0xca9ac17eULL;
    DramModule module(config);
    RowHammerEngine engine(module);
    for (std::uint64_t row = 0; row < 16; ++row)
        engine.rowProfile(0, row);

    const ProfileCacheStats before = profileCacheStats();
    ASSERT_GE(before.entries, 16u);

    profileCacheSetCapacity(8);
    const ProfileCacheStats shrunk = profileCacheStats();
    EXPECT_EQ(shrunk.capacity, 8u);
    EXPECT_LE(shrunk.entries, 8u);
    EXPECT_GE(shrunk.evictions - before.evictions,
              before.entries - 8u);

    // Eviction never invalidates a held profile: the engine's
    // shared_ptr keeps its rows alive, so re-reads still work.
    EXPECT_EQ(engine.rowProfile(0, 3).base,
              module.rowBase(0, 3));

    profileCacheSetCapacity(before.capacity); // restore the bound
    EXPECT_EQ(profileCacheStats().capacity, before.capacity);
}

TEST(Hammer, ProfileCacheHoldsACampaignBatch)
{
    // A Table-1 campaign batch touches 1,456 distinct rows.  Rows
    // this sparse meet the entry bound first, so 8 KiB rows keep the
    // builds short.
    DramConfig config;
    config.capacity = 64 * MiB;
    config.rowBytes = 8 * KiB;
    config.banks = 1;
    config.cellMap = CellTypeMap::alternating(4);
    config.errors.pf = 1e-3;
    config.seed = 0xba7c4ULL;
    DramModule module(config);
    constexpr std::uint64_t rows = 1500;

    const ProfileCacheStats before = profileCacheStats();
    RowHammerEngine first(module);
    for (std::uint64_t row = 0; row < rows; ++row)
        first.rowProfile(0, row);
    const ProfileCacheStats built = profileCacheStats();
    EXPECT_EQ(built.misses - before.misses, rows);

    // A second engine over the same module builds none of them again.
    RowHammerEngine second(module);
    for (std::uint64_t row = 0; row < rows; ++row)
        second.rowProfile(0, row);
    const ProfileCacheStats after = profileCacheStats();
    EXPECT_EQ(after.misses, built.misses);
    EXPECT_EQ(after.hits - built.hits, rows);
}

TEST(Hammer, ProfileCacheBoundsStoredCells)
{
    // An 8 KiB row at pf 0.2 holds about 13,100 cells: more than the
    // 8,192 a one-entry shard may hold, fewer than a two-entry
    // shard's 16,384.
    DramConfig config;
    config.capacity = 64 * MiB;
    config.rowBytes = 8 * KiB;
    config.banks = 1;
    config.cellMap = CellTypeMap::alternating(4);
    config.errors.pf = 0.2;
    config.seed = 0xce115ULL;
    DramModule module(config);
    const auto secondFetchHits = [&module] {
        RowHammerEngine first(module);
        first.rowProfile(0, 1);
        const std::uint64_t hits = profileCacheStats().hits;
        RowHammerEngine second(module);
        second.rowProfile(0, 1);
        return profileCacheStats().hits - hits;
    };

    const std::size_t capacity = profileCacheStats().capacity;
    profileCacheSetCapacity(8); // one entry a shard
    EXPECT_EQ(secondFetchHits(), 0u);
    profileCacheSetCapacity(16); // two entries a shard
    EXPECT_EQ(secondFetchHits(), 1u);
    profileCacheSetCapacity(capacity); // restore the bound
}

} // namespace
} // namespace ctamem::dram
