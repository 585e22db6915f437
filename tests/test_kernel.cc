/**
 * @file
 * Tests for the simulated kernel: process lifecycle, demand paging,
 * file-backed shared mappings, the pte_alloc_one policies, theorem
 * auditing, and the alternative (baseline) allocation policies.
 */

#include <gtest/gtest.h>

#include "cta/indicator.hh"
#include "kernel/kernel.hh"

namespace ctamem::kernel {
namespace {

using paging::PageFlags;

KernelConfig
standardConfig()
{
    KernelConfig config;
    config.dram.capacity = 256 * MiB;
    config.dram.rowBytes = 128 * KiB;
    config.dram.banks = 1;
    config.dram.cellMap = dram::CellTypeMap::alternating(64);
    config.dram.seed = 23;
    config.policy = AllocPolicy::Standard;
    return config;
}

KernelConfig
ctaKernelConfig(std::uint64_t ptp = 2 * MiB, unsigned min_zeros = 0)
{
    KernelConfig config = standardConfig();
    config.policy = AllocPolicy::Cta;
    config.cta.ptpBytes = ptp;
    config.cta.minIndicatorZeros = min_zeros;
    return config;
}

constexpr PageFlags rw{true, false, false};

TEST(Kernel, BootAndSecret)
{
    Kernel kernel(standardConfig());
    EXPECT_EQ(kernel.dram().readU64(kernel.kernelSecretAddr()),
              Kernel::kernelSecret);
}

TEST(Kernel, AnonymousMappingReadsZeroThenHoldsWrites)
{
    Kernel kernel(standardConfig());
    const int pid = kernel.createProcess("proc");
    const VAddr base = kernel.mmapAnon(pid, 64 * KiB, rw);
    ASSERT_NE(base, 0u);

    auto read = kernel.readUser(pid, base);
    ASSERT_TRUE(read);
    EXPECT_EQ(read.value, 0u);

    ASSERT_TRUE(kernel.writeUser(pid, base + 8, 0xabcdef));
    EXPECT_EQ(kernel.readUser(pid, base + 8).value, 0xabcdefu);
}

TEST(Kernel, FileMappingsShareFrames)
{
    Kernel kernel(standardConfig());
    const int pid = kernel.createProcess("proc");
    const int fd = kernel.createFile(1 * MiB);
    const VAddr a = kernel.mmapFile(pid, fd, 64 * KiB, rw);
    const VAddr b = kernel.mmapFile(pid, fd, 64 * KiB, rw);
    ASSERT_NE(a, 0u);
    ASSERT_NE(b, 0u);
    ASSERT_NE(a, b);

    // Same file page behind both mappings: writes are visible.
    ASSERT_TRUE(kernel.writeUser(pid, a, 0x1234));
    EXPECT_EQ(kernel.readUser(pid, b).value, 0x1234u);
    EXPECT_EQ(kernel.readUser(pid, a).phys,
              kernel.readUser(pid, b).phys);
}

TEST(Kernel, SegfaultOutsideVmas)
{
    Kernel kernel(standardConfig());
    const int pid = kernel.createProcess("proc");
    EXPECT_FALSE(kernel.readUser(pid, 0xdead000));
    EXPECT_GT(kernel.stats().value("segfaults"), 0u);
}

TEST(Kernel, ReadOnlyMappingRejectsWrites)
{
    Kernel kernel(standardConfig());
    const int pid = kernel.createProcess("proc");
    const int fd = kernel.createFile(64 * KiB);
    const VAddr base = kernel.mmapFile(pid, fd, 64 * KiB,
                                       PageFlags{false, false, false});
    ASSERT_TRUE(kernel.readUser(pid, base));
    EXPECT_FALSE(kernel.writeUser(pid, base, 1));
}

TEST(Kernel, MunmapFreesAnonFrames)
{
    Kernel kernel(standardConfig());
    const int pid = kernel.createProcess("proc");
    const VAddr base = kernel.mmapAnon(pid, 128 * KiB, rw);
    for (VAddr va = base; va < base + 128 * KiB; va += pageSize)
        ASSERT_TRUE(kernel.touchUser(pid, va));
    const std::uint64_t free_before = kernel.phys().freeFrames();
    ASSERT_TRUE(kernel.munmap(pid, base));
    EXPECT_EQ(kernel.phys().freeFrames(), free_before + 32);
    EXPECT_FALSE(kernel.readUser(pid, base));
}

TEST(Kernel, ExitProcessReleasesEverything)
{
    Kernel kernel(standardConfig());
    const std::uint64_t free_boot = kernel.phys().freeFrames();
    const std::uint64_t tables_boot = kernel.pageTableBytes();
    const int pid = kernel.createProcess("proc");
    const VAddr base = kernel.mmapAnon(pid, 256 * KiB, rw);
    for (VAddr va = base; va < base + 256 * KiB; va += pageSize)
        ASSERT_TRUE(kernel.touchUser(pid, va));
    kernel.exitProcess(pid);
    EXPECT_EQ(kernel.phys().freeFrames(), free_boot);
    EXPECT_EQ(kernel.pageTableBytes(), tables_boot);
}

TEST(Kernel, PageTablesTrackedWithLevels)
{
    Kernel kernel(standardConfig());
    const int pid = kernel.createProcess("proc");
    const Pfn root = kernel.process(pid).rootPfn;
    EXPECT_TRUE(kernel.isPageTableFrame(root));
    EXPECT_EQ(kernel.tableLevel(root), 4u);

    const VAddr base = kernel.mmapAnon(pid, 64 * KiB, rw);
    ASSERT_TRUE(kernel.touchUser(pid, base));
    // Root + PDPT + PD + PT.
    EXPECT_GE(kernel.pageTableBytes(), 4 * pageSize);
}

TEST(KernelStandard, PageTablesLandAnywhere)
{
    // The vulnerable baseline: PT pages interleave with user data in
    // ZONE_NORMAL/DMA32 — physically adjacent to attacker memory.
    Kernel kernel(standardConfig());
    const int pid = kernel.createProcess("proc");
    const VAddr base = kernel.mmapAnon(pid, 64 * KiB, rw);
    ASSERT_TRUE(kernel.touchUser(pid, base));
    bool some_table_below_top = false;
    for (const auto &[pfn, level] : kernel.pageTableFrames()) {
        if (pfnToAddr(pfn) < 200 * MiB)
            some_table_below_top = true;
    }
    EXPECT_TRUE(some_table_below_top);
    EXPECT_FALSE(kernel.auditTheorem().holds());
}

TEST(KernelCta, TablesAboveLwmInTrueCells)
{
    Kernel kernel(ctaKernelConfig());
    const int pid = kernel.createProcess("proc");
    const VAddr base = kernel.mmapAnon(pid, 1 * MiB, rw);
    for (VAddr va = base; va < base + 1 * MiB; va += pageSize)
        ASSERT_TRUE(kernel.touchUser(pid, va));

    const Addr lwm = kernel.ptpLayout()->lowWaterMark;
    for (const auto &[pfn, level] : kernel.pageTableFrames()) {
        EXPECT_GE(pfnToAddr(pfn), lwm);
        EXPECT_EQ(kernel.dram().cellTypeAt(pfnToAddr(pfn)),
                  dram::CellType::True);
    }
    EXPECT_TRUE(kernel.auditTheorem().holds());
}

TEST(KernelCta, UserDataStaysBelowLwm)
{
    Kernel kernel(ctaKernelConfig());
    const int pid = kernel.createProcess("proc");
    const VAddr base = kernel.mmapAnon(pid, 1 * MiB, rw);
    const Addr lwm = kernel.ptpLayout()->lowWaterMark;
    for (VAddr va = base; va < base + 1 * MiB; va += pageSize) {
        auto access = kernel.readUser(pid, va);
        ASSERT_TRUE(access);
        EXPECT_LT(access.phys, lwm);
    }
}

TEST(KernelCta, PtpPressureTriggersReclaim)
{
    // A 256 KiB ZONE_PTP (64 frames) runs out of fresh frames; the
    // kernel evicts old leaf tables (Section 6.3 pressure) instead
    // of failing, and evicted regions demand-fault back correctly.
    Kernel kernel(ctaKernelConfig(256 * KiB));
    const int pid = kernel.createProcess("proc");
    std::vector<VAddr> bases;
    for (int i = 0; i < 128; ++i) {
        const VAddr base = kernel.mmapAnon(pid, pageSize, rw);
        ASSERT_NE(base, 0u);
        ASSERT_TRUE(kernel.writeUser(pid, base, 0x1000u + i))
            << "mapping " << i;
        bases.push_back(base);
    }
    EXPECT_GT(kernel.stats().value("ptReclaims"), 0u);
    EXPECT_EQ(kernel.stats().value("pteAllocFailures"), 0u);
    // Every page still readable with its own data: the resident anon
    // frames survived their page tables' eviction.
    for (int i = 0; i < 128; ++i) {
        auto access = kernel.readUser(pid, bases[i]);
        ASSERT_TRUE(access);
        EXPECT_EQ(access.value, 0x1000u + i);
    }
}

TEST(KernelCta, TablesLiveInPtpZonesAndDataNeverFallsIntoThem)
{
    // 32 MiB: ZONE_PTP is 1 MiB of true cells below the anti-cell top
    // stripe.  Below 4 GiB there is no ZONE_NORMAL, so every data
    // request already falls down the zonelist to DMA32, then DMA.
    KernelConfig config = ctaKernelConfig(1 * MiB);
    config.dram.capacity = 32 * MiB;
    Kernel kernel(config);
    const mm::Zone *ptp = kernel.phys().zone(mm::ZoneId::Ptp);
    ASSERT_NE(ptp, nullptr);

    const int pid = kernel.createProcess("hog");
    const VAddr base = kernel.mmapAnon(pid, 32 * MiB, rw);
    VAddr va = base;
    while (va < base + 32 * MiB && kernel.touchUser(pid, va))
        va += pageSize;

    // The data zones ran dry while ZONE_PTP still had free frames.
    EXPECT_GT(kernel.stats().value("oomFaults"), 0u);
    EXPECT_GT(kernel.phys().stats().value("fallbacks"), 0u);
    EXPECT_EQ(kernel.phys().zone(mm::ZoneId::Dma)->freeFrames(), 0u);
    EXPECT_EQ(kernel.phys().zone(mm::ZoneId::Dma32)->freeFrames(), 0u);
    EXPECT_GT(ptp->freeFrames(), 0u);
    for (const auto &[vaddr, pfn] : kernel.process(pid).anonFrames)
        EXPECT_NE(kernel.phys().zoneOf(pfn), ptp);

    // Every live table frame, the root included, is a ZONE_PTP frame.
    ASSERT_FALSE(kernel.pageTableFrames().empty());
    for (const auto &[pfn, level] : kernel.pageTableFrames())
        EXPECT_EQ(kernel.phys().zoneOf(pfn), ptp);
    EXPECT_EQ(ptp->totalFrames() - ptp->freeFrames(),
              kernel.pageTableFrames().size());
}

TEST(KernelCta, RestrictionSendsTrustedDataToReservedZone)
{
    Kernel kernel(ctaKernelConfig(2 * MiB, 2));
    const int untrusted = kernel.createProcess("attacker", false);
    const int trusted = kernel.createProcess("daemon", true);
    const cta::PtpIndicator ind(kernel.dram().geometry().capacity(),
                                kernel.config().cta.ptpBytes);

    const VAddr ua = kernel.mmapAnon(untrusted, 64 * KiB, rw);
    auto uaccess = kernel.readUser(untrusted, ua);
    ASSERT_TRUE(uaccess);
    EXPECT_GE(ind.zeros(uaccess.phys), 2u);

    const VAddr ta = kernel.mmapAnon(trusted, 64 * KiB, rw);
    auto taccess = kernel.readUser(trusted, ta);
    ASSERT_TRUE(taccess);
    EXPECT_LT(ind.zeros(taccess.phys), 2u);
}

TEST(KernelCatt, KernelAndUserPartitioned)
{
    KernelConfig config = standardConfig();
    config.policy = AllocPolicy::Catt;
    Kernel kernel(config);
    const int pid = kernel.createProcess("proc");
    const VAddr base = kernel.mmapAnon(pid, 64 * KiB, rw);
    auto access = kernel.readUser(pid, base);
    ASSERT_TRUE(access);
    // CATT layout: kernel partition low, user partition high.
    EXPECT_GE(access.phys, 128 * MiB);
    for (const auto &[pfn, level] : kernel.pageTableFrames())
        EXPECT_LT(pfnToAddr(pfn), 128 * MiB);
}

TEST(KernelZebram, DataOnlyInEvenRows)
{
    KernelConfig config = standardConfig();
    config.policy = AllocPolicy::Zebram;
    Kernel kernel(config);
    const int pid = kernel.createProcess("proc");
    const VAddr base = kernel.mmapAnon(pid, 256 * KiB, rw);
    for (VAddr va = base; va < base + 256 * KiB; va += pageSize) {
        auto access = kernel.readUser(pid, va);
        ASSERT_TRUE(access);
        if (access.phys >= 16 * MiB) {
            EXPECT_EQ((access.phys / (128 * KiB)) % 2, 0u)
                << "data frame in an odd (guard) row";
        }
    }
    // Half the above-DMA capacity is sacrificed.
    const std::uint64_t data_frames = kernel.phys().totalFrames();
    EXPECT_NEAR(static_cast<double>(data_frames),
                (16 * MiB + 120 * MiB) / 4096.0, 64.0);
}

TEST(Kernel, TlbFlushForcesRewalk)
{
    Kernel kernel(standardConfig());
    const int pid = kernel.createProcess("proc");
    const VAddr base = kernel.mmapAnon(pid, 64 * KiB, rw);
    ASSERT_TRUE(kernel.touchUser(pid, base));
    const std::uint64_t walks_before =
        kernel.mmu().walker().stats().value("walks");
    ASSERT_TRUE(kernel.readUser(pid, base)); // TLB hit
    EXPECT_EQ(kernel.mmu().walker().stats().value("walks"),
              walks_before);
    kernel.flushTlb();
    ASSERT_TRUE(kernel.readUser(pid, base)); // miss -> walk
    EXPECT_GT(kernel.mmu().walker().stats().value("walks"),
              walks_before);
}

TEST(Kernel, MmapFixedOverlapRejected)
{
    Kernel kernel(standardConfig());
    const int pid = kernel.createProcess("proc");
    const VAddr base = kernel.mmapAnon(pid, 64 * KiB, rw, 0x40000000);
    EXPECT_EQ(base, 0x40000000u);
    EXPECT_EQ(kernel.mmapAnon(pid, 64 * KiB, rw, 0x40001000), 0u);
}

} // namespace
} // namespace ctamem::kernel
