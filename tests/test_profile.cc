/**
 * @file
 * Tests for the system-level profilers: cell-type identification and
 * retention measurement.
 */

#include <gtest/gtest.h>

#include "dram/module.hh"
#include "profile/cell_profiler.hh"
#include "profile/retention_profiler.hh"

namespace ctamem::profile {
namespace {

using dram::CellType;
using dram::CellTypeMap;
using dram::DramConfig;
using dram::DramModule;

DramConfig
profConfig(CellTypeMap map = CellTypeMap::alternating(16))
{
    DramConfig config;
    config.capacity = 64 * MiB;
    config.rowBytes = 128 * KiB;
    config.banks = 1;
    config.cellMap = map;
    config.seed = 21;
    return config;
}

TEST(CellProfiler, IdentifiesAlternatingLayout)
{
    DramModule module(profConfig());
    CellTypeProfiler profiler(module);
    const auto types = profiler.classifyRows(0, 0, 63);
    for (std::uint64_t row = 0; row < types.size(); ++row) {
        EXPECT_EQ(types[row], module.rowCellType(0, row))
            << "row " << row;
    }
}

TEST(CellProfiler, RegionsMatchPeriod)
{
    DramModule module(profConfig());
    CellTypeProfiler profiler(module);
    const auto regions = profiler.profileRegions(0, 0, 63);
    ASSERT_EQ(regions.size(), 4u); // 64 rows / period 16
    for (const RowRegion &region : regions)
        EXPECT_EQ(region.rows(), 16u);
    EXPECT_EQ(regions[0].type, CellType::True);
    EXPECT_EQ(regions[1].type, CellType::Anti);
}

TEST(CellProfiler, TrueCellRegionFilter)
{
    DramModule module(profConfig());
    CellTypeProfiler profiler(module);
    const auto regions = profiler.trueCellRegions(0, 0, 63);
    ASSERT_EQ(regions.size(), 2u);
    for (const RowRegion &region : regions)
        EXPECT_EQ(region.type, CellType::True);
}

TEST(CellProfiler, MostlyTrueLayout)
{
    DramModule module(
        profConfig(CellTypeMap::mostlyTrue(15)));
    CellTypeProfiler profiler(module);
    const auto types = profiler.classifyRows(0, 0, 31);
    unsigned anti = 0;
    for (CellType type : types)
        if (type == CellType::Anti)
            ++anti;
    EXPECT_EQ(anti, 2u); // one anti row per 16
}

TEST(RetentionProfiler, MeasurementMatchesFaultModel)
{
    DramModule module(profConfig());
    RetentionProfiler profiler(module);
    for (Addr addr : {Addr{0}, Addr{100}, Addr{5000}}) {
        const CellRetention measured = profiler.measure(addr, 0);
        const SimTime truth =
            module.faults().retentionTime(addr, 0, 20.0);
        if (!measured.exceededCap) {
            EXPECT_NEAR(static_cast<double>(measured.retention),
                        static_cast<double>(truth),
                        static_cast<double>(60 * milliseconds));
        } else {
            EXPECT_GE(truth, profiler.measure(addr, 0).retention);
        }
    }
}

TEST(RetentionProfiler, SortsLongestFirst)
{
    DramModule module(profConfig());
    RetentionProfiler profiler(module);
    const auto cells = profiler.profileRegion(0, 4096, 64);
    ASSERT_GT(cells.size(), 2u);
    for (std::size_t i = 1; i < cells.size(); ++i)
        EXPECT_GE(cells[i - 1].retention, cells[i].retention);
}

TEST(RetentionProfiler, CanariesAreTheLongest)
{
    DramModule module(profConfig());
    RetentionProfiler profiler(module);
    const auto all = profiler.profileRegion(0, 4096, 64);
    const auto canaries = profiler.findCanaries(0, 4096, 4, 64);
    ASSERT_EQ(canaries.size(), 4u);
    EXPECT_EQ(canaries[0].retention, all[0].retention);
    EXPECT_GE(canaries.back().retention, all[4].retention);
}

} // namespace
} // namespace ctamem::profile
