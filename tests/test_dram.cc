/**
 * @file
 * Unit tests for the DRAM substrate: geometry/address mapping,
 * cell-type maps, sparse storage, fault model, decay, re-mapping.
 */

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "common/log.hh"
#include "dram/cell_types.hh"
#include "dram/fault_model.hh"
#include "dram/geometry.hh"
#include "dram/module.hh"
#include "dram/sparse_store.hh"

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

TEST(SparseStore, FrameCacheSurvivesInterleavingAndClear)
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
    std::uint64_t vulnerable = 0;
    const std::uint64_t cells = 2'000'000;
    for (std::uint64_t i = 0; i < cells; ++i)
        if (faults.vulnerable(i / 8, static_cast<unsigned>(i % 8)))
            ++vulnerable;
    // Expected 200 +- statistical noise.
    EXPECT_NEAR(static_cast<double>(vulnerable), 200.0, 60.0);
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

TEST(FaultModel, StablePropertiesAcrossQueries)
{
    FaultModel faults(42, ErrorStats{});
    for (std::uint64_t i = 0; i < 1000; ++i) {
        EXPECT_EQ(faults.vulnerable(i, 1), faults.vulnerable(i, 1));
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
    module.setRefreshEnabled(false);
    module.advance(600 * seconds);
    module.setRefreshEnabled(true);

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

TEST(Module, RefreshPreventsDecay)
{
    DramModule module(smallConfig());
    module.writeByte(0, 0xff);
    module.advance(600 * seconds); // refresh enabled: no decay
    EXPECT_EQ(module.readByte(0), 0xff);
}

TEST(Module, ReenablingRefreshResetsClock)
{
    DramModule module(smallConfig());
    module.writeByte(0, 0xff);
    module.setRefreshEnabled(false);
    module.advance(50 * milliseconds); // under the retention floor
    module.setRefreshEnabled(true);
    module.setRefreshEnabled(false);
    module.advance(50 * milliseconds);
    module.setRefreshEnabled(true);
    // Two short unrefreshed windows do not add up to one long one.
    EXPECT_EQ(module.readByte(0), 0xff);
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
