/**
 * @file
 * Tests of the Section 7 multi-page-size surface: large-page
 * mappings, the PS-bit hijack attack against single-level CTA, and
 * its defeat by multi-level zones with PS-bit screening.
 */

#include <gtest/gtest.h>

#include "attack/pagesize_attack.hh"
#include "common/log.hh"
#include "kernel/kernel.hh"

namespace ctamem::attack {
namespace {

using kernel::AllocPolicy;
using kernel::Kernel;
using kernel::KernelConfig;

KernelConfig
psConfig(double pf, bool multi_level, bool screen)
{
    KernelConfig config;
    config.dram.capacity = 512 * MiB;
    config.dram.rowBytes = 128 * KiB;
    config.dram.banks = 1;
    config.dram.cellMap = dram::CellTypeMap::alternating(512);
    config.dram.errors.pf = pf;
    config.dram.seed = 77;
    config.policy = AllocPolicy::Cta;
    config.cta.ptpBytes = 4 * MiB;
    config.cta.multiLevelZones = multi_level;
    config.cta.screenPageSizeBit = screen;
    return config;
}

constexpr paging::PageFlags rw{true, false, false};

/**
 * Free frames outside ZONE_PTP — the ones data allocations draw on;
 * page tables come out of ZONE_PTP, which is part of phys() too.
 */
std::uint64_t
freeDataFrames(Kernel &kernel)
{
    return kernel.phys().freeFrames() -
           kernel.phys().zone(mm::ZoneId::Ptp)->freeFrames();
}

TEST(LargePages, MapAndAccess)
{
    Kernel kernel(psConfig(1e-4, false, false));
    const int pid = kernel.createProcess("proc");
    const VAddr base = kernel.mmapAnonLarge(pid, rw);
    ASSERT_NE(base, 0u);
    EXPECT_EQ(base % (2 * MiB), 0u);

    // Eagerly mapped: every page of the 2 MiB region works, and the
    // translation is a level-2 leaf.
    ASSERT_TRUE(kernel.writeUser(pid, base + 1 * MiB, 0xfeed));
    auto access = kernel.readUser(pid, base + 1 * MiB);
    ASSERT_TRUE(access);
    EXPECT_EQ(access.value, 0xfeedu);

    const paging::WalkResult walk = kernel.mmu().walker().walk(
        kernel.process(pid).rootPfn, base + 1 * MiB,
        paging::AccessType::Read, paging::Privilege::User);
    ASSERT_TRUE(walk.ok());
    EXPECT_EQ(walk.leafLevel, 2u);
}

TEST(LargePages, PhysicallyContiguousAndAligned)
{
    Kernel kernel(psConfig(1e-4, false, false));
    const int pid = kernel.createProcess("proc");
    const VAddr base = kernel.mmapAnonLarge(pid, rw);
    ASSERT_NE(base, 0u);
    const Addr phys0 = kernel.readUser(pid, base).phys;
    EXPECT_EQ(phys0 % (2 * MiB), 0u);
    for (unsigned i = 1; i < 512; i += 37) {
        const Addr phys = kernel.readUser(pid, base + i * pageSize)
                              .phys;
        EXPECT_EQ(phys, phys0 + i * pageSize);
    }
}

TEST(LargePages, MunmapReleasesTheBlock)
{
    Kernel kernel(psConfig(1e-4, false, false));
    const int pid = kernel.createProcess("proc");
    const std::uint64_t free0 = freeDataFrames(kernel);
    const VAddr base = kernel.mmapAnonLarge(pid, rw);
    ASSERT_NE(base, 0u);
    EXPECT_EQ(freeDataFrames(kernel), free0 - 512);
    ASSERT_TRUE(kernel.munmap(pid, base));
    EXPECT_EQ(freeDataFrames(kernel), free0);
    EXPECT_FALSE(kernel.readUser(pid, base));
}

TEST(LargePages, ExitProcessReleasesTheBlock)
{
    Kernel kernel(psConfig(1e-4, false, false));
    const std::uint64_t free0 = kernel.phys().freeFrames();
    const int pid = kernel.createProcess("proc");
    ASSERT_NE(kernel.mmapAnonLarge(pid, rw), 0u);
    kernel.exitProcess(pid);
    EXPECT_EQ(kernel.phys().freeFrames(), free0);
}

TEST(PageSizeAttack, HijacksSingleLevelCta)
{
    // A vulnerable module (Pf = 5e-2 so a PS flip is near-certain
    // among ~128 PD entries): single-level CTA places PDs in the
    // same true-cell zone, the dominant '1'->'0' direction flips
    // PS, and the attacker's crafted large page becomes a window
    // onto real page tables.
    Kernel kernel(psConfig(5e-2, false, false));
    dram::RowHammerEngine engine(kernel.dram());
    const AttackResult result = runPageSizeAttack(kernel, engine);
    EXPECT_EQ(result.outcome, Outcome::Escalated) << result.detail;
}

TEST(PageSizeAttack, ScreeningBlocksIt)
{
    // Multi-level zones + PS-bit screening: candidate PD frames with
    // a '1'->'0'-vulnerable PS cell are never used for tables, so
    // the templated flip cannot exist.  (Moderate Pf so screening
    // leaves usable frames; the attack without screening succeeds
    // with the same module whenever any of its PD entries is
    // flippable.)
    Kernel kernel(psConfig(5e-3, true, true));
    ASSERT_GT(kernel.ptpLayout()->screenedFrames, 0u);
    dram::RowHammerEngine engine(kernel.dram());
    const AttackResult result = runPageSizeAttack(kernel, engine);
    EXPECT_EQ(result.outcome, Outcome::Blocked) << result.detail;
}

TEST(PageSizeAttack, RequiresCta)
{
    KernelConfig config = psConfig(1e-3, false, false);
    config.policy = AllocPolicy::Standard;
    Kernel kernel(config);
    dram::RowHammerEngine engine(kernel.dram());
    EXPECT_THROW(runPageSizeAttack(kernel, engine),
                 ctamem::FatalError);
}

} // namespace
} // namespace ctamem::attack
