/**
 * @file
 * Cross-cutting integration tests: multi-bank machines, interleaved
 * address schemes end to end, multi-process isolation, workload
 * suites over every defense policy, determinism of the deterministic
 * attack, and kernel bookkeeping under stress.
 */

#include <gtest/gtest.h>

#include <set>

#include "attack/drammer.hh"
#include "attack/projectzero.hh"
#include "kernel/kernel.hh"
#include "sim/machine.hh"
#include "sim/workload.hh"

namespace ctamem {
namespace {

using kernel::AllocPolicy;
using kernel::Kernel;
using kernel::KernelConfig;
using paging::PageFlags;

constexpr PageFlags rw{true, false, false};

KernelConfig
multiBankConfig(AllocPolicy policy)
{
    KernelConfig config;
    config.dram.capacity = 256 * MiB;
    config.dram.rowBytes = 128 * KiB;
    config.dram.banks = 8;
    config.dram.cellMap = dram::CellTypeMap::alternating(64);
    config.dram.errors.pf = 1e-3;
    config.dram.seed = 404;
    config.policy = policy;
    config.cta.ptpBytes = 2 * MiB;
    return config;
}

TEST(MultiBank, CtaInvariantsHoldAcrossBanks)
{
    Kernel kernel(multiBankConfig(AllocPolicy::Cta));
    const int pid = kernel.createProcess("proc");
    const VAddr base = kernel.mmapAnon(pid, 2 * MiB, rw);
    for (VAddr va = base; va < base + 2 * MiB; va += pageSize)
        ASSERT_TRUE(kernel.touchUser(pid, va));
    EXPECT_TRUE(kernel.auditTheorem().holds());
    // With bank-blocked mapping, ZONE_PTP lives in the last bank.
    for (const auto &[pfn, level] : kernel.pageTableFrames()) {
        const dram::Location loc = kernel.dram().locate(
            pfnToAddr(pfn));
        EXPECT_EQ(loc.bank, 7u);
    }
}

TEST(MultiBank, SprayAttackStillBlocked)
{
    Kernel kernel(multiBankConfig(AllocPolicy::Cta));
    dram::RowHammerEngine engine(kernel.dram());
    const attack::AttackResult result =
        attack::runProjectZero(kernel, engine);
    EXPECT_NE(result.outcome, attack::Outcome::Escalated);
    EXPECT_TRUE(kernel.auditTheorem().holds());
}

TEST(MultiBank, SprayAttackBeatsUnprotectedMultiBank)
{
    Kernel kernel(multiBankConfig(AllocPolicy::Standard));
    dram::RowHammerEngine engine(kernel.dram());
    const attack::AttackResult result =
        attack::runProjectZero(kernel, engine);
    EXPECT_EQ(result.outcome, attack::Outcome::Escalated)
        << result.detail;
}

TEST(MultiProcess, IsolationAndIndependentTables)
{
    Kernel kernel(multiBankConfig(AllocPolicy::Cta));
    const int a = kernel.createProcess("a");
    const int b = kernel.createProcess("b");
    const VAddr va = kernel.mmapAnon(a, 64 * KiB, rw);
    const VAddr vb = kernel.mmapAnon(b, 64 * KiB, rw);
    ASSERT_TRUE(kernel.writeUser(a, va, 0xa));
    ASSERT_TRUE(kernel.writeUser(b, vb, 0xb));
    // Same virtual address, different physical frames.
    EXPECT_EQ(va, vb); // bump allocators start identically
    EXPECT_NE(kernel.readUser(a, va).phys,
              kernel.readUser(b, vb).phys);
    EXPECT_EQ(kernel.readUser(a, va).value, 0xau);
    EXPECT_EQ(kernel.readUser(b, vb).value, 0xbu);
    // b cannot see a's address space (no mapping at a's other vmas).
    kernel.exitProcess(a);
    EXPECT_EQ(kernel.readUser(b, vb).value, 0xbu);
}

TEST(Workloads, FullSuitesRunUnderEveryPolicy)
{
    for (const AllocPolicy policy :
         {AllocPolicy::Standard, AllocPolicy::Cta, AllocPolicy::Catt,
          AllocPolicy::Zebram}) {
        Kernel kernel(multiBankConfig(policy));
        // One representative workload per suite keeps runtime sane.
        for (const sim::WorkloadSpec &spec :
             {sim::spec2006Suite().at(4),
              sim::phoronixSuite().at(12)}) {
            const sim::WorkloadMetrics metrics =
                sim::runWorkload(kernel, spec);
            EXPECT_GT(metrics.touches, 0u)
                << spec.name << " under policy "
                << static_cast<int>(policy);
            EXPECT_EQ(metrics.oomEvents, 0u);
        }
        EXPECT_EQ(kernel.processCount(), 0u);
    }
}

TEST(Workloads, EventCountsIdenticalAcrossCtaToggle)
{
    // The Table 4 mechanism at test granularity: identical event
    // streams, not just identical scores.
    Kernel vanilla(multiBankConfig(AllocPolicy::Standard));
    Kernel protected_kernel(multiBankConfig(AllocPolicy::Cta));
    const sim::WorkloadSpec spec = sim::spec2006Suite().at(6);
    const sim::WorkloadMetrics a = sim::runWorkload(vanilla, spec);
    const sim::WorkloadMetrics b =
        sim::runWorkload(protected_kernel, spec);
    EXPECT_EQ(a.touches, b.touches);
    EXPECT_EQ(a.pageFaults, b.pageFaults);
    EXPECT_EQ(a.pteAllocs, b.pteAllocs);
    EXPECT_EQ(a.tlbMisses, b.tlbMisses);
    EXPECT_EQ(a.mmapCalls, b.mmapCalls);
}

TEST(Drammer, FullyDeterministicRuns)
{
    auto run = [] {
        KernelConfig config = multiBankConfig(AllocPolicy::Standard);
        config.dram.banks = 1;
        Kernel kernel(config);
        dram::RowHammerEngine engine(kernel.dram());
        return attack::runDrammer(kernel, engine);
    };
    const attack::AttackResult a = run();
    const attack::AttackResult b = run();
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(a.flipsInduced, b.flipsInduced);
    EXPECT_EQ(a.hammerPasses, b.hammerPasses);
    EXPECT_EQ(a.detail, b.detail);
}

TEST(KernelStress, ManyProcessesChurnCleanly)
{
    Kernel kernel(multiBankConfig(AllocPolicy::Cta));
    const std::uint64_t free0 = kernel.phys().freeFrames();
    const mm::Zone &ptp = *kernel.phys().zone(mm::ZoneId::Ptp);
    const std::uint64_t ptp0 = ptp.freeFrames();
    for (int round = 0; round < 5; ++round) {
        std::vector<int> pids;
        for (int i = 0; i < 16; ++i) {
            const int pid = kernel.createProcess("p");
            const VAddr base = kernel.mmapAnon(pid, 128 * KiB, rw);
            for (VAddr va = base; va < base + 128 * KiB;
                 va += pageSize) {
                ASSERT_TRUE(kernel.touchUser(pid, va));
            }
            pids.push_back(pid);
        }
        for (const int pid : pids)
            kernel.exitProcess(pid);
    }
    EXPECT_EQ(kernel.phys().freeFrames(), free0);
    EXPECT_EQ(ptp.freeFrames(), ptp0);
    EXPECT_EQ(kernel.pageTableBytes(), 0u);
}

TEST(RowInterleaved, MachineWorksEndToEnd)
{
    KernelConfig config = multiBankConfig(AllocPolicy::Cta);
    config.dram.scheme = dram::AddressScheme::RowInterleaved;
    Kernel kernel(config);
    const int pid = kernel.createProcess("proc");
    // 48 separate 2 MiB slots: enough leaf tables (> one DRAM row of
    // frames) to observe the bank spread.
    for (int i = 0; i < 48; ++i) {
        const VAddr base = kernel.mmapAnon(pid, pageSize, rw);
        ASSERT_TRUE(kernel.touchUser(pid, base));
    }
    EXPECT_TRUE(kernel.auditTheorem().holds());
    // Interleaving spreads consecutive table frames across banks.
    std::set<std::uint64_t> banks;
    for (const auto &[pfn, level] : kernel.pageTableFrames())
        banks.insert(kernel.dram().locate(pfnToAddr(pfn)).bank);
    EXPECT_GT(banks.size(), 1u);
}

} // namespace
} // namespace ctamem
