/**
 * @file
 * Tests for the paging::Arch descriptor layer: the x86-64 descriptor
 * is pinned to the Intel SDM bit positions and encodings, the
 * AArch64 descriptors encode ARMv8-A stage-1 formats, and one
 * map/walk/unmap workload behaves identically across every backend
 * (the cross-backend property the refactor must preserve).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "dram/module.hh"
#include "paging/address_space.hh"
#include "paging/arch.hh"
#include "paging/walker.hh"

namespace ctamem::paging {
namespace {

TEST(Arch, X86DescriptorPinsTheHistoricalLayout)
{
    // Every field equals its Intel SDM (Vol. 3, 4-level paging) bit
    // position — the bit-identity anchor of the x86-64 backend.
    EXPECT_EQ(kX86_64.levels, 4u);
    EXPECT_EQ(kX86_64.granuleShift, 12u);
    EXPECT_EQ(kX86_64.presentBit, 0u);
    EXPECT_EQ(kX86_64.writableBit, 1u);
    EXPECT_FALSE(kX86_64.writableLowActive);
    EXPECT_EQ(kX86_64.userBit, 2u);
    EXPECT_EQ(kX86_64.accessedBit, 5u);
    EXPECT_EQ(kX86_64.dirtyBit, 6u);
    EXPECT_EQ(kX86_64.blockBit, 7u);
    EXPECT_FALSE(kX86_64.blockLowActive);
    EXPECT_EQ(kX86_64.nxBit, 63u);
    EXPECT_EQ(kX86_64.pointerLo, 12u);
    EXPECT_EQ(kX86_64.pointerHi, 51u);
    EXPECT_EQ(kX86_64.entriesPerTable(), 512u);
    EXPECT_EQ(kX86_64.tableOrder(), 0u);
    EXPECT_EQ(kX86_64.granuleFrames(), 1u);

    // Encodings: P|R/W|U/S|NX around the PFN at bit 12, plus PS for a
    // 2 MiB leaf; table entries are P|R/W|U/S, A and D left clear.
    const Pfn pfn = 0x12345;
    const PageFlags flags{true, true, true};
    EXPECT_EQ(kX86_64.makeLeaf(pfn, flags, 1), 0x8000000012345007ULL);
    EXPECT_EQ(kX86_64.makeLeaf(pfn, flags, 2), 0x8000000012345087ULL);
    EXPECT_EQ(kX86_64.makeTable(pfn), 0x0000000012345007ULL);

    // Each level consumes 9 VA bits above the 12-bit page offset.
    const VAddr vaddr = 0x7f0000123456ULL;
    for (unsigned level = 1; level <= 4; ++level) {
        const unsigned shift = 12 + 9 * (level - 1);
        EXPECT_EQ(kX86_64.tableIndex(vaddr, level),
                  (vaddr >> shift) & 0x1ff);
        EXPECT_EQ(kX86_64.levelCoverage(level), 1ULL << shift);
    }
}

TEST(Arch, AArch64DescriptorsEncodeArmFormats)
{
    const Pfn pfn = addrToPfn(64 * MiB);

    // Table descriptor: bits[1:0] = 0b11, no permission bits.
    const std::uint64_t table = kAArch64_4K.makeTable(pfn);
    EXPECT_EQ(table & 0x3, 0x3u);
    EXPECT_EQ(kAArch64_4K.pfn(table), pfn);

    // Level-1 page descriptor: type bit set, AF set, AP[2] clear for
    // writable, AP[1] set for user, UXN for no-execute.
    const std::uint64_t page =
        kAArch64_4K.makeLeaf(pfn, PageFlags{true, true, true}, 1);
    EXPECT_EQ(page & 0x3, 0x3u);
    EXPECT_TRUE(page & (1ULL << 10));  // AF
    EXPECT_FALSE(page & (1ULL << 7));  // AP[2] clear = writable
    EXPECT_TRUE(page & (1ULL << 6));   // AP[1] = EL0
    EXPECT_TRUE(page & (1ULL << 54));  // UXN
    EXPECT_TRUE(kAArch64_4K.writable(page));
    EXPECT_TRUE(kAArch64_4K.user(page));
    EXPECT_TRUE(kAArch64_4K.leafAt(page, 1));

    // Read-only leaf: AP[2] *set* (active-low writable).
    const std::uint64_t ro =
        kAArch64_4K.makeLeaf(pfn, PageFlags{false, true}, 1);
    EXPECT_TRUE(ro & (1ULL << 7));
    EXPECT_FALSE(kAArch64_4K.writable(ro));

    // Block descriptor at level 2: type bit *clear*.
    const std::uint64_t block =
        kAArch64_4K.makeLeaf(pfn, PageFlags{true, true}, 2);
    EXPECT_EQ(block & 0x3, 0x1u);
    EXPECT_TRUE(kAArch64_4K.blockMarked(block));
    EXPECT_TRUE(kAArch64_4K.blockAt(block, 2));
    EXPECT_FALSE(kAArch64_4K.blockAt(block, 1));

    // 16K/64K granules: the pointer field is granule-aligned, and
    // pfn() always answers in global 4 KiB frames.
    for (const Arch *arch : {&kAArch64_16K, &kAArch64_64K}) {
        const Pfn frame = addrToPfn(128 * MiB);
        const std::uint64_t leaf =
            arch->makeLeaf(frame, PageFlags{true, true}, 1);
        EXPECT_EQ(arch->pfn(leaf), frame) << arch->name;
        EXPECT_EQ(arch->granuleFrames(),
                  arch->granuleBytes() / pageSize)
            << arch->name;
    }

    // Blocks above maxLeafLevel never decode as block leaves.
    EXPECT_FALSE(kAArch64_16K.blockAt(
        kAArch64_16K.makeLeaf(pfn, PageFlags{true, true}, 2), 3));
}

TEST(Arch, ResolveAndIsaTokensRoundTrip)
{
    EXPECT_EQ(&resolveArch(Isa::X86_64, 4 * KiB), &kX86_64);
    EXPECT_EQ(&resolveArch(Isa::AArch64, 4 * KiB), &kAArch64_4K);
    EXPECT_EQ(&resolveArch(Isa::AArch64, 16 * KiB), &kAArch64_16K);
    EXPECT_EQ(&resolveArch(Isa::AArch64, 64 * KiB), &kAArch64_64K);
    EXPECT_THROW(resolveArch(Isa::X86_64, 16 * KiB),
                 ctamem::FatalError);
    EXPECT_THROW(resolveArch(Isa::AArch64, 8 * KiB),
                 ctamem::FatalError);

    for (const Arch *arch : kAllArches) {
        Isa isa = Isa::X86_64;
        EXPECT_TRUE(parseIsa(isaName(arch->isa), isa)) << arch->name;
        EXPECT_EQ(isa, arch->isa) << arch->name;
    }
    Isa isa = Isa::X86_64;
    EXPECT_FALSE(parseIsa("riscv", isa));
}

/**
 * One backend under test: DRAM + a bump allocator that hands out
 * naturally aligned granules (the invariant the buddy allocator
 * provides in the real kernel).
 */
struct Backend
{
    explicit Backend(const Arch &arch) : arch(&arch)
    {
        dram::DramConfig config;
        config.capacity = 256 * MiB;
        config.rowBytes = 128 * KiB;
        config.banks = 1;
        module = std::make_unique<dram::DramModule>(config);
        next = addrToPfn(1 * MiB);
        root = allocTable();
        space = std::make_unique<AddressSpace>(
            *module,
            [this](unsigned) {
                return std::optional<Pfn>(allocTable());
            },
            [](Pfn) {}, root, arch);
        walker = std::make_unique<PageWalker>(*module, arch);
    }

    Pfn
    allocTable()
    {
        const Pfn frames = arch->granuleFrames();
        next = (next + frames - 1) & ~(frames - 1);
        const Pfn pfn = next;
        next += frames;
        std::vector<std::uint8_t> zeros(arch->granuleBytes(), 0);
        module->write(pfnToAddr(pfn), zeros.data(), zeros.size());
        return pfn;
    }

    const Arch *arch;
    std::unique_ptr<dram::DramModule> module;
    Pfn next;
    Pfn root;
    std::unique_ptr<AddressSpace> space;
    std::unique_ptr<PageWalker> walker;
};

TEST(Arch, CrossBackendWalkProperty)
{
    // The same random workload on every backend: map 64 KiB-aligned
    // pages (aligned for the coarsest granule, so the mapped bytes
    // agree), walk with every access/privilege mix, unmap, re-walk.
    Rng rng(20260808);
    struct Page
    {
        VAddr vaddr;
        Pfn frame;
        PageFlags flags;
    };
    std::vector<Page> pages;
    for (int i = 0; i < 48; ++i) {
        Page page;
        // A distinct 256 MiB region per page (no overlap, whatever
        // the granule) with a random aligned offset inside it; well
        // under the smallest backend VA span (42-bit, 64K granule).
        page.vaddr = (std::uint64_t(i + 1) << 28) |
                     ((rng.next() & ((1ULL << 28) - 1)) &
                      ~std::uint64_t(64 * KiB - 1));
        page.frame =
            addrToPfn((32 * MiB + i * 64 * KiB) & ~(64 * KiB - 1));
        page.flags.writable = (i % 3) != 0;
        page.flags.user = (i % 2) != 0;
        pages.push_back(page);
    }

    std::vector<std::unique_ptr<Backend>> backends;
    for (const Arch *arch : kAllArches)
        backends.push_back(std::make_unique<Backend>(*arch));

    for (auto &backend : backends) {
        for (const Page &page : pages)
            ASSERT_TRUE(backend->space->map(page.vaddr, page.frame,
                                            page.flags))
                << backend->arch->name;
    }

    for (const Page &page : pages) {
        for (const unsigned offset : {0u, 0x123u, 0xfffu}) {
            // Reference semantics from the historical x86-64 walk.
            const WalkResult want = backends[0]->walker->walk(
                backends[0]->root, page.vaddr + offset,
                AccessType::Read, Privilege::Supervisor);
            ASSERT_TRUE(want.ok());
            for (auto &backend : backends) {
                const WalkResult got = backend->walker->walk(
                    backend->root, page.vaddr + offset,
                    AccessType::Read, Privilege::Supervisor);
                ASSERT_TRUE(got.ok()) << backend->arch->name;
                EXPECT_EQ(got.phys, want.phys)
                    << backend->arch->name;
                EXPECT_EQ(got.writable, want.writable)
                    << backend->arch->name;
                EXPECT_EQ(got.user, want.user)
                    << backend->arch->name;

                // Permission faults agree too.
                const WalkResult user_write = backend->walker->walk(
                    backend->root, page.vaddr + offset,
                    AccessType::Write, Privilege::User);
                const bool allowed =
                    page.flags.writable && page.flags.user;
                EXPECT_EQ(user_write.ok(), allowed)
                    << backend->arch->name;
            }
        }
    }

    // Unmap the even pages everywhere; walks fault there and only
    // there.
    for (std::size_t i = 0; i < pages.size(); ++i) {
        if (i % 2)
            continue;
        for (auto &backend : backends)
            EXPECT_TRUE(backend->space->unmap(pages[i].vaddr))
                << backend->arch->name;
    }
    for (std::size_t i = 0; i < pages.size(); ++i) {
        for (auto &backend : backends) {
            const WalkResult result = backend->walker->walk(
                backend->root, pages[i].vaddr, AccessType::Read,
                Privilege::Supervisor);
            EXPECT_EQ(result.ok(), i % 2 == 1)
                << backend->arch->name << " page " << i;
        }
    }
}

TEST(Arch, LargeMappingsAgreeAcrossGranules)
{
    // A level-2 block on x86 (2 MiB) vs base-granule fills on ARM:
    // not the same table shape, but the same translated bytes.
    Backend x86(kX86_64);
    Backend arm(kAArch64_4K);
    const VAddr vaddr = 1ULL << 30;
    const Pfn frame = addrToPfn(64 * MiB);
    ASSERT_TRUE(x86.space->mapLarge(vaddr, frame,
                                    PageFlags{true, true}, 2));
    ASSERT_TRUE(arm.space->mapLarge(vaddr, frame,
                                    PageFlags{true, true}, 2));
    for (const std::uint64_t offset :
         {std::uint64_t{0}, std::uint64_t{0x1234},
          std::uint64_t{2 * MiB - 1}}) {
        const WalkResult a = x86.walker->walk(
            x86.root, vaddr + offset, AccessType::Write,
            Privilege::User);
        const WalkResult b = arm.walker->walk(
            arm.root, vaddr + offset, AccessType::Write,
            Privilege::User);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        EXPECT_EQ(a.phys, b.phys);
        EXPECT_EQ(a.leafLevel, 2u);
        EXPECT_EQ(b.leafLevel, 2u);
    }
}

} // namespace
} // namespace ctamem::paging
