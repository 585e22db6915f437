/**
 * @file
 * Tests for the CTA core: PTP indicator arithmetic, ZONE_PTP
 * construction (true-cell collection, capacity loss, low water mark),
 * the kernel-reserved indicator restriction, multi-level zones,
 * PS-bit screening, and the theorem helpers.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "cta/indicator.hh"
#include "cta/plan.hh"
#include "dram/module.hh"
#include "kernel/kernel.hh"
#include "fault_oracle.hh"
#include "theorem_oracle.hh"

namespace ctamem::cta {
namespace {

using dram::CellType;
using dram::CellTypeMap;
using dram::DramConfig;
using dram::DramModule;

DramConfig
baseConfig(CellTypeMap map = CellTypeMap::alternating(64))
{
    DramConfig config;
    config.capacity = 256 * MiB;
    config.rowBytes = 128 * KiB;
    config.banks = 1;
    config.cellMap = map;
    config.seed = 17;
    return config;
}

CtaConfig
ctaConfig(std::uint64_t ptp = 2 * MiB)
{
    CtaConfig config;
    config.ptpBytes = ptp;
    return config;
}

kernel::KernelConfig
ctaKernelConfig()
{
    kernel::KernelConfig config;
    config.dram = baseConfig();
    config.policy = kernel::AllocPolicy::Cta;
    config.cta = ctaConfig();
    return config;
}

TEST(Indicator, PaperConfiguration)
{
    // 8 GiB with 32 MiB ZONE_PTP: n = 8 indicator bits.
    PtpIndicator ind(8 * GiB, 32 * MiB);
    EXPECT_EQ(ind.bits(), 8u);
    EXPECT_EQ(ind.regionBytes(), 32 * MiB);
    EXPECT_EQ(ind.regionBase(), 8 * GiB - 32 * MiB);
    EXPECT_TRUE(ind.allOnes(8 * GiB - 1));
    EXPECT_TRUE(ind.allOnes(8 * GiB - 32 * MiB));
    EXPECT_FALSE(ind.allOnes(8 * GiB - 32 * MiB - 1));
    EXPECT_EQ(ind.zeros(0), 8u);
    EXPECT_EQ(ind.zeros(8 * GiB - 1), 0u);
    // One zero: the region just below the top one.
    EXPECT_EQ(ind.zeros(8 * GiB - 64 * MiB), 1u);
}

TEST(Indicator, RejectsBadSizes)
{
    EXPECT_THROW(PtpIndicator(8 * GiB, 8 * GiB), FatalError);
    EXPECT_THROW(PtpIndicator(8 * GiB, 0), FatalError);
    EXPECT_THROW(PtpIndicator(8 * GiB + 1, 32 * MiB), FatalError);
}

TEST(PtpZone, CollectsOnlyTrueCells)
{
    DramModule module(baseConfig());
    const PtpLayout zone = planLayout(module, ctaConfig());
    EXPECT_EQ(zone.trueBytes, 2 * MiB);
    for (const mm::FrameSpan &span : zone.spans) {
        for (Pfn pfn = span.basePfn; pfn < span.endPfn(); ++pfn) {
            EXPECT_EQ(module.cellTypeAt(pfnToAddr(pfn)),
                      CellType::True);
        }
    }
}

TEST(PtpZone, SkipsAntiTopStripe)
{
    // Period 64 rows = 8 MiB stripes; the top stripe is anti-cells,
    // so the zone skips 8 MiB and the LWM lands at 246 MiB.
    DramModule module(baseConfig());
    const PtpLayout zone = planLayout(module, ctaConfig());
    EXPECT_EQ(zone.skippedAntiBytes, 8 * MiB);
    EXPECT_EQ(zone.lowWaterMark, 246 * MiB);
}

TEST(PtpZone, NoLossWhenTrueCellsOnTop)
{
    DramModule module(
        baseConfig(CellTypeMap::alternating(64, /*true_first=*/false)));
    // Anti-first with 32 stripes: top stripe (index 31, odd) is true.
    const PtpLayout zone = planLayout(module, ctaConfig());
    EXPECT_EQ(zone.skippedAntiBytes, 0u);
    EXPECT_EQ(zone.lowWaterMark, 254 * MiB);
}

TEST(PtpZone, MostlyTrueModuleHasTinyLoss)
{
    // 63:1 true:anti -> at most one anti row skipped per 64.
    DramModule module(baseConfig(CellTypeMap::mostlyTrue(63)));
    const PtpLayout zone = planLayout(module, ctaConfig());
    EXPECT_LE(zone.skippedAntiBytes, 128 * KiB);
}

TEST(PtpZone, AllAntiModuleFails)
{
    DramModule module(
        baseConfig(CellTypeMap::uniform(CellType::Anti)));
    EXPECT_THROW(planLayout(module, ctaConfig()), FatalError);
}

// The allocation cases go through the kernel's pte_alloc_one, which
// asks PhysicalMemory's ZONE_PTP with GFP_PTP.

TEST(PtpZone, AllocateZeroesAndStaysInZone)
{
    kernel::Kernel kernel(ctaKernelConfig());
    const mm::Zone *zone = kernel.phys().zone(mm::ZoneId::Ptp);
    ASSERT_NE(zone, nullptr);
    kernel.dram().writeU64(pfnToAddr(addrToPfn(247 * MiB)), 0xffULL);
    for (int i = 0; i < 32; ++i) {
        auto pfn = kernel.pteAllocOne(1, 0);
        ASSERT_TRUE(pfn);
        EXPECT_TRUE(zone->contains(*pfn));
        EXPECT_GE(pfnToAddr(*pfn), kernel.ptpLayout()->lowWaterMark);
        EXPECT_EQ(kernel.dram().readU64(pfnToAddr(*pfn)), 0u);
    }
}

TEST(PtpZone, ExhaustionReturnsNullopt)
{
    kernel::Kernel kernel(ctaKernelConfig());
    const std::uint64_t total =
        kernel.phys().zone(mm::ZoneId::Ptp)->totalFrames();
    EXPECT_EQ(total * pageSize, 2 * MiB);
    for (std::uint64_t i = 0; i < total; ++i)
        ASSERT_TRUE(kernel.pteAllocOne(1, 0).has_value());
    EXPECT_FALSE(kernel.pteAllocOne(1, 0).has_value());
}

TEST(PtpZone, FreeRecyclesFrames)
{
    kernel::Kernel kernel(ctaKernelConfig());
    const mm::Zone &zone = *kernel.phys().zone(mm::ZoneId::Ptp);
    auto pfn = kernel.pteAllocOne(1, 0);
    ASSERT_TRUE(pfn);
    const std::uint64_t free_before = zone.freeFrames();
    kernel.pteFree(*pfn);
    EXPECT_EQ(zone.freeFrames(), free_before + 1);
}

TEST(PtpZone, MultiLevelOrdering)
{
    kernel::KernelConfig config = ctaKernelConfig();
    config.cta.multiLevelZones = true;
    kernel::Kernel kernel(config);

    // Higher-level tables must land at higher physical addresses,
    // each in its own level's zone.
    auto l4 = kernel.pteAllocOne(4, 0);
    auto l3 = kernel.pteAllocOne(3, 0);
    auto l2 = kernel.pteAllocOne(2, 0);
    auto l1 = kernel.pteAllocOne(1, 0);
    ASSERT_TRUE(l4 && l3 && l2 && l1);
    EXPECT_GT(*l4, *l3);
    EXPECT_GT(*l3, *l2);
    EXPECT_GT(*l2, *l1);
    EXPECT_EQ(kernel.phys().zoneOf(*l4)->id(), mm::ZoneId::PtpL4);
    EXPECT_EQ(kernel.phys().zoneOf(*l1)->id(), mm::ZoneId::Ptp);
}

TEST(PtpZone, PsBitScreeningDropsVulnerableFrames)
{
    kernel::KernelConfig config = ctaKernelConfig();
    config.dram.errors.pf = 5e-4; // boost so screening has victims
    config.cta.multiLevelZones = true;
    config.cta.screenPageSizeBit = true;
    kernel::Kernel kernel(config);
    EXPECT_GT(kernel.ptpLayout()->screenedFrames, 0u);

    // Surviving level>=2 frames must have no 1->0-vulnerable PS bit.
    const paging::Arch &arch = kernel.arch();
    const dram::FaultModel &faults = kernel.dram().faults();
    for (unsigned level = 2; level <= 4; ++level) {
        auto pfn = kernel.pteAllocOne(level, 0);
        ASSERT_TRUE(pfn);
        for (std::uint64_t slot = 0; slot < arch.entriesPerTable();
             ++slot) {
            const Addr addr = pfnToAddr(*pfn) + slot * 8;
            const bool bad =
                dram::vulnerable(faults, addr, arch.blockBit) &&
                faults.flipDirection(addr, arch.blockBit,
                                     CellType::True) ==
                    dram::FlipDirection::OneToZero;
            EXPECT_FALSE(bad);
        }
    }
}

TEST(Plan, StandardZonesStopAtLwm)
{
    DramModule module(baseConfig());
    CtaPlan plan = buildCtaPlan(module, ctaConfig());
    const Addr lwm = plan.layout.lowWaterMark;
    for (const mm::ZoneSpec &spec : plan.physSpecs) {
        for (const mm::FrameSpan &span : spec.spans)
            EXPECT_LE(pfnToAddr(span.endPfn()), lwm);
    }
}

TEST(Plan, RestrictionCarvesKernelRsv)
{
    DramModule module(baseConfig());
    CtaConfig config = ctaConfig();
    config.minIndicatorZeros = 2;
    CtaPlan plan = buildCtaPlan(module, config);

    const auto rsv_it =
        std::find_if(plan.physSpecs.begin(), plan.physSpecs.end(),
                     [](const mm::ZoneSpec &spec) {
                         return spec.id == mm::ZoneId::KernelRsv;
                     });
    ASSERT_NE(rsv_it, plan.physSpecs.end());

    // Every reserved frame has < 2 zeros; every remaining normal /
    // dma32 frame has >= 2 zeros or sits below the indicator field.
    const PtpIndicator ind(module.geometry().capacity(),
                           config.ptpBytes);
    for (const mm::FrameSpan &span : rsv_it->spans) {
        for (Pfn pfn = span.basePfn; pfn < span.endPfn();
             pfn += span.frames / 2 + 1) {
            EXPECT_LT(ind.zeros(pfnToAddr(pfn)), 2u);
        }
    }
    for (const mm::ZoneSpec &spec : plan.physSpecs) {
        if (spec.id == mm::ZoneId::KernelRsv)
            continue;
        for (const mm::FrameSpan &span : spec.spans) {
            EXPECT_GE(ind.zeros(pfnToAddr(span.basePfn)), 2u);
            EXPECT_GE(ind.zeros(pfnToAddr(span.endPfn() - 1)), 2u);
        }
    }
}

TEST(Plan, SubtractSpans)
{
    using mm::FrameSpan;
    const std::vector<FrameSpan> from{FrameSpan{0, 100}};
    const std::vector<FrameSpan> holes{FrameSpan{10, 10},
                                       FrameSpan{50, 10}};
    const auto result = subtractSpans(from, holes);
    ASSERT_EQ(result.size(), 3u);
    EXPECT_EQ(result[0], (FrameSpan{0, 10}));
    EXPECT_EQ(result[1], (FrameSpan{20, 30}));
    EXPECT_EQ(result[2], (FrameSpan{60, 40}));
}

TEST(Theorem, FlipReachability)
{
    EXPECT_TRUE(reachableByDownFlips(0b1010, 0b1000));
    EXPECT_TRUE(reachableByDownFlips(0b1010, 0b0000));
    EXPECT_FALSE(reachableByDownFlips(0b1010, 0b1011));
    EXPECT_TRUE(reachableByUpFlips(0b1010, 0b1110));
    EXPECT_FALSE(reachableByUpFlips(0b1010, 0b0010));
}

TEST(Theorem, MonotonicityExhaustiveSmall)
{
    // Property check over every 8-bit (before, after) pair: any
    // down-flip-reachable value is numerically smaller or equal.
    for (unsigned before = 0; before < 256; ++before) {
        for (unsigned after = 0; after < 256; ++after) {
            EXPECT_TRUE(monotonicityHolds(before, after));
            if (reachableByDownFlips(before, after)) {
                EXPECT_LE(after, before);
            }
        }
    }
}

} // namespace
} // namespace ctamem::cta
