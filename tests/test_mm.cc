/**
 * @file
 * Tests for the memory-management substrate: the buddy allocator,
 * zones with multiple sub-zone spans, and PhysicalMemory with GFP
 * fallback semantics.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/log.hh"
#include "dram/module.hh"
#include "mm/buddy.hh"
#include "mm/phys_mem.hh"
#include "mm/zone.hh"

namespace ctamem::mm {
namespace {

TEST(Buddy, AllocatesAllFramesAtOrderZero)
{
    BuddyAllocator buddy(0, 64);
    std::set<Pfn> seen;
    for (int i = 0; i < 64; ++i) {
        auto pfn = buddy.allocate(0);
        ASSERT_TRUE(pfn.has_value());
        EXPECT_TRUE(seen.insert(*pfn).second) << "duplicate frame";
    }
    EXPECT_FALSE(buddy.allocate(0).has_value());
    EXPECT_EQ(buddy.freeFrames(), 0u);
}

TEST(Buddy, SplitAndCoalesce)
{
    BuddyAllocator buddy(0, 1024);
    auto a = buddy.allocate(3); // 8 frames
    ASSERT_TRUE(a);
    EXPECT_EQ(buddy.freeFrames(), 1016u);
    buddy.free(*a, 3);
    EXPECT_EQ(buddy.freeFrames(), 1024u);
    // After full coalescing a max-order block is available again.
    auto big = buddy.allocate(BuddyAllocator::maxOrder);
    EXPECT_TRUE(big.has_value());
}

TEST(Buddy, NaturalAlignment)
{
    BuddyAllocator buddy(0, 1024);
    for (unsigned order = 0; order <= 5; ++order) {
        auto pfn = buddy.allocate(order);
        ASSERT_TRUE(pfn);
        EXPECT_EQ(*pfn & ((1ULL << order) - 1), 0u)
            << "block not aligned to order " << order;
    }
}

TEST(Buddy, LowestAddressFirst)
{
    BuddyAllocator buddy(0, 256);
    auto first = buddy.allocate(0);
    ASSERT_TRUE(first);
    EXPECT_EQ(*first, 0u);
    auto second = buddy.allocate(0);
    ASSERT_TRUE(second);
    EXPECT_EQ(*second, 1u);
}

TEST(Buddy, DeterministicReuse)
{
    // The frame freed last at the lowest address is handed out again
    // — the property Drammer-style allocator massaging relies on.
    BuddyAllocator buddy(0, 256);
    auto a = buddy.allocate(0);
    auto b = buddy.allocate(0);
    ASSERT_TRUE(a && b);
    buddy.free(*a, 0);
    auto c = buddy.allocate(0);
    ASSERT_TRUE(c);
    EXPECT_EQ(*c, *a);
}

TEST(Buddy, UnalignedBaseAndOddSize)
{
    BuddyAllocator buddy(5, 100); // frames [5, 105)
    EXPECT_EQ(buddy.freeFrames(), 100u);
    std::set<Pfn> seen;
    for (int i = 0; i < 100; ++i) {
        auto pfn = buddy.allocate(0);
        ASSERT_TRUE(pfn);
        EXPECT_GE(*pfn, 5u);
        EXPECT_LT(*pfn, 105u);
        EXPECT_TRUE(seen.insert(*pfn).second);
    }
    EXPECT_FALSE(buddy.allocate(0).has_value());
}

TEST(Buddy, IsFreeTracksState)
{
    BuddyAllocator buddy(0, 64);
    EXPECT_TRUE(buddy.isFree(10, 0));
    auto pfn = buddy.allocate(0);
    ASSERT_TRUE(pfn);
    EXPECT_FALSE(buddy.isFree(*pfn, 0));
    buddy.free(*pfn, 0);
    EXPECT_TRUE(buddy.isFree(*pfn, 0));
}

TEST(Buddy, DoubleFreePanics)
{
    BuddyAllocator buddy(0, 64);
    auto pfn = buddy.allocate(0);
    ASSERT_TRUE(pfn);
    buddy.free(*pfn, 0);
    EXPECT_DEATH(buddy.free(*pfn, 0), "double free|panic");
}

TEST(Zone, MultipleSpansSearchedInOrder)
{
    ZoneSpec spec{ZoneId::Ptp,
                  {FrameSpan{100, 4}, FrameSpan{200, 4}}};
    Zone zone(spec);
    EXPECT_EQ(zone.totalFrames(), 8u);
    // First span drains first.
    for (int i = 0; i < 4; ++i) {
        auto pfn = zone.allocate(0);
        ASSERT_TRUE(pfn);
        EXPECT_GE(*pfn, 100u);
        EXPECT_LT(*pfn, 104u);
    }
    auto next = zone.allocate(0);
    ASSERT_TRUE(next);
    EXPECT_GE(*next, 200u);
    EXPECT_TRUE(zone.contains(102));
    EXPECT_FALSE(zone.contains(104));
}

TEST(Zone, FailureWhenExhausted)
{
    Zone zone(ZoneSpec{ZoneId::Dma, {FrameSpan{0, 2}}});
    EXPECT_TRUE(zone.allocate(0));
    EXPECT_TRUE(zone.allocate(0));
    EXPECT_FALSE(zone.allocate(0));
    EXPECT_EQ(zone.stats().value("failures"), 1u);
}

class PhysMemTest : public ::testing::Test
{
  protected:
    PhysMemTest()
    {
        dram::DramConfig config;
        config.capacity = 256 * MiB;
        config.rowBytes = 128 * KiB;
        config.banks = 1;
        module_ = std::make_unique<dram::DramModule>(config);
        phys_ = std::make_unique<PhysicalMemory>(
            *module_,
            standardZoneSpecs(config.capacity, config.capacity));
    }

    std::unique_ptr<dram::DramModule> module_;
    std::unique_ptr<PhysicalMemory> phys_;
};

TEST_F(PhysMemTest, StandardLayoutBelow4G)
{
    // 256 MiB machine: DMA + DMA32 only.
    EXPECT_NE(phys_->zone(ZoneId::Dma), nullptr);
    EXPECT_NE(phys_->zone(ZoneId::Dma32), nullptr);
    EXPECT_EQ(phys_->zone(ZoneId::Normal), nullptr);
    EXPECT_EQ(phys_->totalFrames(), 256 * MiB / pageSize);
}

TEST_F(PhysMemTest, NormalRequestFallsBackToDma32)
{
    // With no ZONE_NORMAL, a GFP_KERNEL request lands in DMA32.
    auto pfn = phys_->allocate(GFP_KERNEL);
    ASSERT_TRUE(pfn);
    EXPECT_EQ(phys_->zoneOf(*pfn)->id(), ZoneId::Dma32);
}

TEST_F(PhysMemTest, NoFallbackHonored)
{
    GfpFlags strict{ZoneId::Normal, true};
    EXPECT_FALSE(phys_->allocate(strict).has_value());
    EXPECT_GT(phys_->stats().value("failures"), 0u);
}

TEST_F(PhysMemTest, PagesComeOutZeroed)
{
    // Dirty a frame directly, free it, re-allocate: must be zeroed.
    auto pfn = phys_->allocate(GFP_KERNEL);
    ASSERT_TRUE(pfn);
    module_->writeU64(pfnToAddr(*pfn), 0x1234567890abcdefULL);
    phys_->free(*pfn);
    auto again = phys_->allocate(GFP_KERNEL);
    ASSERT_TRUE(again);
    EXPECT_EQ(*again, *pfn); // deterministic reuse
    EXPECT_EQ(module_->readU64(pfnToAddr(*again)), 0u);
}

TEST_F(PhysMemTest, PageInfoAndKind)
{
    // A block's head records its order until the block is freed.
    auto pfn = phys_->allocate(GFP_KERNEL);
    ASSERT_TRUE(pfn);
    EXPECT_EQ(phys_->blockOrder(*pfn), 0u);
    phys_->free(*pfn);
    EXPECT_EQ(phys_->blockOrder(*pfn), std::nullopt);
}

TEST_F(PhysMemTest, KindOfInteriorFrame)
{
    // Only the head of an 8-frame block carries its order, and
    // freeing the head returns all 8 frames.
    const std::uint64_t free_before = phys_->freeFrames();
    auto pfn = phys_->allocate(GFP_KERNEL, 3);
    ASSERT_TRUE(pfn);
    EXPECT_EQ(phys_->blockOrder(*pfn), 3u);
    for (Pfn interior = *pfn + 1; interior < *pfn + 8; ++interior)
        EXPECT_EQ(phys_->blockOrder(interior), std::nullopt);
    EXPECT_EQ(phys_->freeFrames(), free_before - 8);
    phys_->free(*pfn);
    EXPECT_EQ(phys_->freeFrames(), free_before);
}

TEST_F(PhysMemTest, BadFreesPanic)
{
    auto pfn = phys_->allocate(GFP_KERNEL, 3);
    ASSERT_TRUE(pfn);
    // A frame never allocated (the fixture allocates nothing else).
    EXPECT_DEATH(phys_->free(*pfn + 8), "heads no live block");
    // An interior frame of a live block.
    EXPECT_DEATH(phys_->free(*pfn + 5), "heads no live block");
    // A double free.
    phys_->free(*pfn);
    EXPECT_DEATH(phys_->free(*pfn), "heads no live block");
}

TEST_F(PhysMemTest, DmaStaysInDma)
{
    auto pfn = phys_->allocate(GFP_DMA);
    ASSERT_TRUE(pfn);
    EXPECT_EQ(phys_->zoneOf(*pfn)->id(), ZoneId::Dma);
    EXPECT_LT(pfnToAddr(*pfn), 16 * MiB);
}

TEST(PhysMem, OverlappingZonesRejected)
{
    dram::DramConfig config;
    config.capacity = 64 * MiB;
    config.rowBytes = 128 * KiB;
    config.banks = 1;
    dram::DramModule module(config);
    std::vector<ZoneSpec> specs{
        ZoneSpec{ZoneId::Dma, {FrameSpan{0, 100}}},
        ZoneSpec{ZoneId::Dma32, {FrameSpan{50, 100}}}};
    EXPECT_THROW(PhysicalMemory(module, specs), FatalError);
}

} // namespace
} // namespace ctamem::mm
