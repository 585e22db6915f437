/**
 * @file
 * Tests for the paging substrate: PTE layout, table construction,
 * the hardware-semantics walker (including corrupted-PTE behaviour),
 * large pages, and the TLB.
 */

#include <gtest/gtest.h>

#include "dram/module.hh"
#include "paging/address_space.hh"
#include "paging/arch.hh"
#include "paging/mmu.hh"
#include "paging/tlb.hh"
#include "paging/walker.hh"

namespace ctamem::paging {
namespace {

// The x86-64 PTE layout, through the kX86_64 descriptor.

TEST(Pte, FieldRoundTrip)
{
    std::uint64_t raw =
        kX86_64.makeLeaf(0x12345, PageFlags{true, true, true}, 1);
    EXPECT_TRUE(kX86_64.present(raw));
    EXPECT_TRUE(kX86_64.writable(raw));
    EXPECT_TRUE(kX86_64.user(raw));
    EXPECT_TRUE(kX86_64.noExecute(raw));
    EXPECT_FALSE(kX86_64.blockMarked(raw));
    EXPECT_EQ(kX86_64.pfn(raw), 0x12345u);

    raw = kX86_64.setPfn(raw, 0x777);
    EXPECT_EQ(kX86_64.pfn(raw), 0x777u);
    EXPECT_TRUE(kX86_64.present(raw)); // flags untouched
}

TEST(Pte, PageSizeBitIsBit7)
{
    EXPECT_TRUE(kX86_64.makeLeaf(1, PageFlags{}, 2) & 0x80);
}

TEST(Pte, IndexExtraction)
{
    // vaddr = PML4 idx 1, PDPT idx 2, PD idx 3, PT idx 4, offset 5.
    const VAddr vaddr = (1ULL << 39) | (2ULL << 30) | (3ULL << 21) |
                        (4ULL << 12) | 5;
    EXPECT_EQ(kX86_64.tableIndex(vaddr, 4), 1u);
    EXPECT_EQ(kX86_64.tableIndex(vaddr, 3), 2u);
    EXPECT_EQ(kX86_64.tableIndex(vaddr, 2), 3u);
    EXPECT_EQ(kX86_64.tableIndex(vaddr, 1), 4u);
}

TEST(Pte, LevelCoverage)
{
    EXPECT_EQ(kX86_64.levelCoverage(1), 4 * KiB);
    EXPECT_EQ(kX86_64.levelCoverage(2), 2 * MiB);
    EXPECT_EQ(kX86_64.levelCoverage(3), 1 * GiB);
}

class PagingTest : public ::testing::Test
{
  protected:
    PagingTest()
    {
        dram::DramConfig config;
        config.capacity = 256 * MiB;
        config.rowBytes = 128 * KiB;
        config.banks = 1;
        module_ = std::make_unique<dram::DramModule>(config);
        // Simple bump allocator for table pages, starting at 1 MiB.
        nextTable_ = addrToPfn(1 * MiB);
        rootPfn_ = allocTable();
        space_ = std::make_unique<AddressSpace>(
            *module_,
            [this](unsigned) { return std::optional<Pfn>(allocTable()); },
            [](Pfn) {}, rootPfn_);
        walker_ = std::make_unique<PageWalker>(*module_);
    }

    Pfn
    allocTable()
    {
        const Pfn pfn = nextTable_++;
        std::vector<std::uint8_t> zeros(pageSize, 0);
        module_->write(pfnToAddr(pfn), zeros.data(), zeros.size());
        return pfn;
    }

    std::unique_ptr<dram::DramModule> module_;
    Pfn nextTable_;
    Pfn rootPfn_;
    std::unique_ptr<AddressSpace> space_;
    std::unique_ptr<PageWalker> walker_;
};

TEST_F(PagingTest, MapAndTranslate)
{
    const VAddr vaddr = 0x7f0000123000ULL;
    const Pfn frame = addrToPfn(32 * MiB);
    ASSERT_TRUE(space_->map(vaddr, frame, PageFlags{true, true}));

    const WalkResult result = walker_->walk(
        rootPfn_, vaddr + 0x123, AccessType::Read, Privilege::User);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.phys, pfnToAddr(frame) + 0x123);
    EXPECT_EQ(result.leafLevel, 1u);
    EXPECT_TRUE(result.writable);
    EXPECT_TRUE(result.user);
}

TEST_F(PagingTest, UnmappedFaults)
{
    const WalkResult result = walker_->walk(
        rootPfn_, 0x1000, AccessType::Read, Privilege::User);
    EXPECT_EQ(result.fault, Fault::NotPresent);
}

TEST_F(PagingTest, SupervisorOnlyBlocksUser)
{
    const VAddr vaddr = 0x40000000ULL;
    ASSERT_TRUE(space_->map(vaddr, addrToPfn(16 * MiB),
                            PageFlags{true, false}));
    EXPECT_EQ(walker_->walk(rootPfn_, vaddr, AccessType::Read,
                            Privilege::User).fault,
              Fault::Protection);
    EXPECT_TRUE(walker_->walk(rootPfn_, vaddr, AccessType::Read,
                              Privilege::Supervisor).ok());
}

TEST_F(PagingTest, ReadOnlyBlocksWrite)
{
    const VAddr vaddr = 0x50000000ULL;
    ASSERT_TRUE(space_->map(vaddr, addrToPfn(16 * MiB),
                            PageFlags{false, true}));
    EXPECT_TRUE(walker_->walk(rootPfn_, vaddr, AccessType::Read,
                              Privilege::User).ok());
    EXPECT_EQ(walker_->walk(rootPfn_, vaddr, AccessType::Write,
                            Privilege::User).fault,
              Fault::Protection);
}

TEST_F(PagingTest, SharedIntermediateTables)
{
    // Two pages in the same 2 MiB slot share the leaf table.
    const std::uint64_t before = space_->tablePageCount();
    ASSERT_TRUE(space_->map(0x60000000ULL, addrToPfn(16 * MiB),
                            PageFlags{true, true}));
    const std::uint64_t after_first = space_->tablePageCount();
    ASSERT_TRUE(space_->map(0x60001000ULL, addrToPfn(17 * MiB),
                            PageFlags{true, true}));
    EXPECT_EQ(space_->tablePageCount(), after_first);
    EXPECT_EQ(after_first - before, 3u); // PDPT + PD + PT
}

TEST_F(PagingTest, UnmapRemovesTranslation)
{
    const VAddr vaddr = 0x70000000ULL;
    ASSERT_TRUE(space_->map(vaddr, addrToPfn(16 * MiB),
                            PageFlags{true, true}));
    EXPECT_TRUE(space_->unmap(vaddr));
    EXPECT_EQ(walker_->walk(rootPfn_, vaddr, AccessType::Read,
                            Privilege::User).fault,
              Fault::NotPresent);
    EXPECT_FALSE(space_->unmap(vaddr));
}

TEST_F(PagingTest, LargePage2M)
{
    const VAddr vaddr = 0x80000000ULL;
    ASSERT_TRUE(space_->mapLarge(vaddr, addrToPfn(64 * MiB),
                                 PageFlags{true, true}, 2));
    const WalkResult result = walker_->walk(
        rootPfn_, vaddr + 0x12345, AccessType::Read, Privilege::User);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.leafLevel, 2u);
    EXPECT_EQ(result.phys, 64 * MiB + 0x12345);
}

TEST_F(PagingTest, CorruptedPteIsFollowed)
{
    // The heart of the attack surface: flip a bit in a PTE's frame
    // field directly in DRAM and observe the walker follow it.
    const VAddr vaddr = 0x90000000ULL;
    const Pfn frame = addrToPfn(48 * MiB);
    ASSERT_TRUE(space_->map(vaddr, frame, PageFlags{true, true}));

    const Addr pte_addr = walker_->entryAddress(rootPfn_, vaddr, 1);
    ASSERT_NE(pte_addr, 0u);
    const std::uint64_t raw = module_->readU64(pte_addr);
    EXPECT_EQ(kX86_64.pfn(raw), frame);

    // Clear bit 14 of the address (bit 2 of the PFN field).
    module_->writeU64(pte_addr,
                      kX86_64.setPfn(raw, frame & ~(1ULL << 2)));

    const WalkResult result = walker_->walk(
        rootPfn_, vaddr, AccessType::Read, Privilege::User);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.phys, pfnToAddr(frame & ~(1ULL << 2)));
}

TEST_F(PagingTest, OutOfRangePointerFaults)
{
    const VAddr vaddr = 0xa0000000ULL;
    ASSERT_TRUE(space_->map(vaddr, addrToPfn(16 * MiB),
                            PageFlags{true, true}));
    const Addr pte_addr = walker_->entryAddress(rootPfn_, vaddr, 1);
    // Point the entry beyond the 256 MiB module.
    module_->writeU64(pte_addr,
                      kX86_64.setPfn(module_->readU64(pte_addr),
                                     addrToPfn(512 * GiB)));
    EXPECT_EQ(walker_->walk(rootPfn_, vaddr, AccessType::Read,
                            Privilege::User).fault,
              Fault::OutOfRange);
}

TEST_F(PagingTest, EntryAddressPerLevel)
{
    const VAddr vaddr = 0xb0000000ULL;
    ASSERT_TRUE(space_->map(vaddr, addrToPfn(16 * MiB),
                            PageFlags{true, true}));
    for (unsigned level = 4; level >= 1; --level) {
        const Addr addr = walker_->entryAddress(rootPfn_, vaddr, level);
        ASSERT_NE(addr, 0u) << "level " << level;
        const std::uint64_t entry = module_->readU64(addr);
        EXPECT_TRUE(kX86_64.present(entry));
        if (level == 1) {
            EXPECT_EQ(kX86_64.pfn(entry), addrToPfn(16 * MiB));
        }
    }
}

TEST(Tlb, HitAfterInsert)
{
    Tlb tlb(4);
    tlb.insert(TlbEntry{1, 0x10, 0x5000, true, true});
    const TlbEntry *hit = tlb.lookup(1, 0x10000 + 0x123);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->physBase, 0x5000u);
    EXPECT_EQ(tlb.stats().value("hits"), 1u);
}

TEST(Tlb, MissOnDifferentRoot)
{
    Tlb tlb(4);
    tlb.insert(TlbEntry{1, 0x10, 0x5000, true, true});
    EXPECT_EQ(tlb.lookup(2, 0x10000), nullptr);
}

TEST(Tlb, LruEviction)
{
    Tlb tlb(2);
    tlb.insert(TlbEntry{1, 1, 0x1000, true, true});
    tlb.insert(TlbEntry{1, 2, 0x2000, true, true});
    EXPECT_NE(tlb.lookup(1, 1 << pageShift), nullptr); // 1 is MRU now
    tlb.insert(TlbEntry{1, 3, 0x3000, true, true});    // evicts 2
    EXPECT_EQ(tlb.lookup(1, 2 << pageShift), nullptr);
    EXPECT_NE(tlb.lookup(1, 1 << pageShift), nullptr);
}

TEST(Tlb, FlushAll)
{
    Tlb tlb(4);
    tlb.insert(TlbEntry{1, 1, 0x1000, true, true});
    tlb.flushAll();
    EXPECT_EQ(tlb.size(), 0u);
    EXPECT_EQ(tlb.lookup(1, 1 << pageShift), nullptr);
}

TEST(Tlb, GeometryFromCapacity)
{
    Tlb tlb(64);
    EXPECT_EQ(tlb.ways(), 8u);
    EXPECT_EQ(tlb.sets(), 8u);
    EXPECT_EQ(tlb.capacity(), 64u);

    // Capacities at or under one way collapse to one LRU set.
    Tlb small(4);
    EXPECT_EQ(small.sets(), 1u);
    EXPECT_EQ(small.ways(), 4u);
}

TEST(Tlb, AliasedVpnAcrossRootsCoexist)
{
    // The same vpn under different roots must not alias: both
    // translations live side by side and resolve to their own frame.
    Tlb tlb(64);
    const VAddr vpn = 0x10;
    tlb.insert(TlbEntry{1, vpn, 0x5000, true, true});
    tlb.insert(TlbEntry{2, vpn, 0x9000, true, true});
    EXPECT_EQ(tlb.size(), 2u);

    const TlbEntry *first = tlb.lookup(1, vpn << pageShift);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->physBase, 0x5000u);
    const TlbEntry *second = tlb.lookup(2, vpn << pageShift);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(second->physBase, 0x9000u);
    EXPECT_EQ(tlb.lookup(3, vpn << pageShift), nullptr);
}

TEST(Tlb, EvictionOrderWithinSet)
{
    // 2-way, 8-set: for one root, vpns congruent mod sets() collide
    // in one set.  Filling the set and touching the older entry must
    // evict the untouched one.
    Tlb tlb(16, 2);
    ASSERT_EQ(tlb.ways(), 2u);
    const std::uint64_t sets = tlb.sets();
    const VAddr v0 = 5;
    const VAddr v1 = v0 + sets;
    const VAddr v2 = v0 + 2 * sets;

    tlb.insert(TlbEntry{1, v0, 0x1000, true, true});
    tlb.insert(TlbEntry{1, v1, 0x2000, true, true});
    EXPECT_NE(tlb.lookup(1, v0 << pageShift), nullptr); // v0 is MRU
    tlb.insert(TlbEntry{1, v2, 0x3000, true, true});    // evicts v1
    EXPECT_EQ(tlb.stats().value("evictions"), 1u);
    EXPECT_EQ(tlb.lookup(1, v1 << pageShift), nullptr);
    EXPECT_NE(tlb.lookup(1, v0 << pageShift), nullptr);
    EXPECT_NE(tlb.lookup(1, v2 << pageShift), nullptr);
    EXPECT_EQ(tlb.size(), 2u);
}

TEST(Tlb, ReinsertRefreshesInPlace)
{
    Tlb tlb(16, 2);
    tlb.insert(TlbEntry{1, 7, 0x1000, true, true});
    tlb.insert(TlbEntry{1, 7, 0x2000, false, true});
    EXPECT_EQ(tlb.size(), 1u);
    EXPECT_EQ(tlb.stats().value("evictions"), 0u);
    const TlbEntry *hit = tlb.lookup(1, 7 << pageShift);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->physBase, 0x2000u);
    EXPECT_FALSE(hit->writable);
}

TEST(Tlb, FlushPageDropsAllRoots)
{
    // munmap shoots one vpn down across every address space, even
    // though each root caches it in a different set.
    Tlb tlb(64);
    const VAddr vpn = 0x44;
    tlb.insert(TlbEntry{1, vpn, 0x1000, true, true});
    tlb.insert(TlbEntry{2, vpn, 0x2000, true, true});
    tlb.insert(TlbEntry{3, vpn, 0x3000, true, true});
    tlb.insert(TlbEntry{1, vpn + 1, 0x4000, true, true});
    ASSERT_EQ(tlb.size(), 4u);

    tlb.flushPage(vpn << pageShift);
    EXPECT_EQ(tlb.size(), 1u);
    EXPECT_EQ(tlb.lookup(1, vpn << pageShift), nullptr);
    EXPECT_EQ(tlb.lookup(2, vpn << pageShift), nullptr);
    EXPECT_EQ(tlb.lookup(3, vpn << pageShift), nullptr);
    EXPECT_NE(tlb.lookup(1, (vpn + 1) << pageShift), nullptr);
}

TEST(Tlb, StatsParityWithLruModel)
{
    // A single-set TLB is exactly the old fully associative LRU
    // model; replay a scripted access pattern and check the counters
    // match the hand-computed LRU outcome.
    Tlb tlb(2);
    ASSERT_EQ(tlb.sets(), 1u);

    tlb.lookup(1, 1 << pageShift);                  // miss
    tlb.insert(TlbEntry{1, 1, 0x1000, true, true}); // fill
    tlb.lookup(1, 1 << pageShift);                  // hit
    tlb.insert(TlbEntry{1, 2, 0x2000, true, true}); // fill (full now)
    tlb.lookup(1, 2 << pageShift);                  // hit; 1 is LRU
    tlb.insert(TlbEntry{1, 3, 0x3000, true, true}); // evicts 1
    tlb.lookup(1, 1 << pageShift);                  // miss
    tlb.lookup(1, 3 << pageShift);                  // hit
    tlb.flushAll();
    tlb.lookup(1, 3 << pageShift);                  // miss

    EXPECT_EQ(tlb.stats().value("hits"), 3u);
    EXPECT_EQ(tlb.stats().value("misses"), 3u);
    EXPECT_EQ(tlb.stats().value("evictions"), 1u);
    EXPECT_EQ(tlb.stats().value("flushes"), 1u);
    EXPECT_EQ(tlb.size(), 0u);
}

TEST(Mmu, CachesTranslationsAndSeesFlush)
{
    dram::DramConfig config;
    config.capacity = 64 * MiB;
    config.rowBytes = 128 * KiB;
    config.banks = 1;
    dram::DramModule module(config);
    Mmu mmu(module);

    // Build a tiny hierarchy by hand.
    Pfn next = addrToPfn(1 * MiB);
    auto alloc = [&] {
        std::vector<std::uint8_t> zeros(pageSize, 0);
        module.write(pfnToAddr(next), zeros.data(), zeros.size());
        return next++;
    };
    const Pfn root = alloc();
    AddressSpace space(module,
                       [&](unsigned) { return std::optional<Pfn>(alloc()); },
                       [](Pfn) {}, root);
    ASSERT_TRUE(space.map(0x1000000, addrToPfn(32 * MiB),
                          PageFlags{true, true}));

    ASSERT_TRUE(mmu.translate(root, 0x1000000, AccessType::Read,
                              Privilege::User).ok());
    ASSERT_TRUE(mmu.translate(root, 0x1000008, AccessType::Read,
                              Privilege::User).ok());
    EXPECT_EQ(mmu.tlb().stats().value("hits"), 1u);

    // Corrupt the PTE; cached translation hides it until a flush.
    const Addr pte_addr =
        mmu.walker().entryAddress(root, 0x1000000, 1);
    module.writeU64(pte_addr, 0); // wipe the mapping
    EXPECT_TRUE(mmu.translate(root, 0x1000000, AccessType::Read,
                              Privilege::User).ok());
    mmu.tlb().flushAll();
    EXPECT_FALSE(mmu.translate(root, 0x1000000, AccessType::Read,
                               Privilege::User).ok());
}

} // namespace
} // namespace ctamem::paging
