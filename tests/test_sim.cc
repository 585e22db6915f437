/**
 * @file
 * Tests for the sim layer: machine assembly per defense, the
 * attack-vs-defense matrix, the pinned work of the Table-1 grid, the
 * workload runner, and the Table 4 performance harness.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "defense/observers.hh"
#include "dram/hammer.hh"
#include "sim/campaign.hh"
#include "sim/machine.hh"
#include "sim/perf_harness.hh"
#include "sim/workload.hh"

namespace ctamem::sim {
namespace {

using defense::DefenseKind;

/** Counters summed over the machines of one serial grid run. */
struct GridWork
{
    std::uint64_t hammerPasses = 0;
    std::uint64_t flips10 = 0;
    std::uint64_t flips01 = 0;
    std::uint64_t pageFaults = 0;
    std::uint64_t pteAllocs = 0;
    std::uint64_t walks = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t frames = 0;
    std::uint64_t profileLookups = 0; //!< shared-cache hits + misses
    std::uint64_t profileBuilds = 0;  //!< shared-cache misses
};

/** Run every cell of @p campaign on its own machine, in order. */
GridWork
runGridSerially(const Campaign &campaign)
{
    GridWork work;
    const dram::ProfileCacheStats before = dram::profileCacheStats();
    for (const CampaignCell &cell : campaign.cells()) {
        Machine machine(cell.config);
        machine.runAttack(cell.attack);
        StatGroup &engine = machine.engine().stats();
        kernel::Kernel &kernel = machine.kernel();
        work.hammerPasses += engine.value("passes");
        work.flips10 += engine.value("flips10");
        work.flips01 += engine.value("flips01");
        work.pageFaults += kernel.stats().value("pageFaults");
        work.pteAllocs += kernel.stats().value("pteAllocs");
        work.walks += kernel.mmu().walker().stats().value("walks");
        work.tlbMisses += kernel.mmu().tlb().stats().value("misses");
        work.frames += machine.dram().store().frameCount();
    }
    const dram::ProfileCacheStats after = dram::profileCacheStats();
    work.profileBuilds = after.misses - before.misses;
    work.profileLookups = after.hits - before.hits + work.profileBuilds;
    return work;
}

TEST(Machine, DefensesMapToPolicies)
{
    MachineConfig config;

    config.defense = DefenseKind::Cta;
    Machine cta(config);
    EXPECT_NE(cta.kernel().ptpLayout(), nullptr);
    EXPECT_EQ(cta.observer(), nullptr);

    config.defense = DefenseKind::Para;
    Machine para(config);
    EXPECT_EQ(para.kernel().ptpLayout(), nullptr);
    ASSERT_NE(para.observer(), nullptr);
    EXPECT_NE(dynamic_cast<defense::ParaObserver *>(para.observer()),
              nullptr);

    config.defense = DefenseKind::Anvil;
    Machine anvil(config);
    ASSERT_NE(anvil.anvil(), nullptr);
}

TEST(Machine, CtaRestrictedCarvesReservedZone)
{
    MachineConfig config;
    config.defense = DefenseKind::CtaRestricted;
    Machine machine(config);
    EXPECT_NE(machine.kernel().phys().zone(mm::ZoneId::KernelRsv),
              nullptr);
}

TEST(Machine, AttackMatrixHeadline)
{
    // The headline contrast: spray attack wins on none, loses on CTA.
    MachineConfig config;
    config.defense = DefenseKind::None;
    Machine vulnerable(config);
    EXPECT_EQ(vulnerable.runAttack(AttackKind::ProjectZero).outcome,
              attack::Outcome::Escalated);

    config.defense = DefenseKind::Cta;
    Machine protected_machine(config);
    EXPECT_NE(protected_machine.runAttack(AttackKind::ProjectZero).outcome,
              attack::Outcome::Escalated);
}

TEST(Machine, Table1GridWorkIsPinned)
{
    // The paper-default grid (the Table-1 matrix) run serially.  What
    // the attacks do is exact; the work it took may only fall: a
    // second walk per translation, a TLB that stops filling, extra
    // materialized frames or a row-profile cache that stops sharing
    // all raise a ceiling.  Lookups count every request that reached
    // the shared cache, hit or miss, so no pin depends on what an
    // earlier test left cached.
    const Campaign campaign =
        Campaign::fromManifest(std::string(CTAMEM_SOURCE_DIR) +
                               "/scenarios/paper-default.json");
    ASSERT_EQ(campaign.size(), 40u);

    const GridWork work = runGridSerially(campaign);
    EXPECT_EQ(work.hammerPasses, 4103u);
    EXPECT_EQ(work.flips10, 137174u);
    EXPECT_EQ(work.flips01, 10590u);
    EXPECT_EQ(work.pageFaults, 251523u);
    EXPECT_EQ(work.pteAllocs, 37269u);
    EXPECT_LE(work.walks, 1249463u);
    EXPECT_LE(work.tlbMisses, 1028279u);
    EXPECT_LE(work.frames, 124675u);
    EXPECT_LE(work.profileLookups, 950u);

    // Every profile the grid needs stays cached for a second pass.
    const GridWork again = runGridSerially(campaign);
    EXPECT_EQ(again.profileBuilds, 0u);
}

TEST(Workload, SuitesHaveTable4Shape)
{
    EXPECT_EQ(spec2006Suite().size(), 12u);  // Table 4 SPEC rows
    EXPECT_EQ(phoronixSuite().size(), 15u);  // Table 4 Phoronix rows
}

TEST(Workload, RunProducesActivity)
{
    MachineConfig config;
    Machine machine(config);
    const WorkloadSpec spec = spec2006Suite().at(4); // gobmk, small
    const WorkloadMetrics metrics =
        runWorkload(machine.kernel(), spec);
    EXPECT_GT(metrics.touches, 0u);
    EXPECT_GT(metrics.pageFaults, 0u);
    EXPECT_GT(metrics.pteAllocs, 0u);
    EXPECT_GT(metrics.score(), 0.0);
    EXPECT_EQ(metrics.oomEvents, 0u);
    // Process cleaned up after itself.
    EXPECT_EQ(machine.kernel().processCount(), 0u);
}

TEST(Workload, DeterministicGivenSeed)
{
    MachineConfig config;
    const WorkloadSpec spec = phoronixSuite().at(8); // cachebench
    Machine a(config);
    Machine b(config);
    const WorkloadMetrics ma = runWorkload(a.kernel(), spec, 5);
    const WorkloadMetrics mb = runWorkload(b.kernel(), spec, 5);
    EXPECT_EQ(ma.touches, mb.touches);
    EXPECT_EQ(ma.pageFaults, mb.pageFaults);
    EXPECT_DOUBLE_EQ(ma.score(), mb.score());
}

TEST(PerfHarness, CtaOverheadIsZeroOnModeledEvents)
{
    // The Table 4 claim: identical event counts => identical scores.
    MachineConfig config;
    config.ptpBytes = 4 * MiB;
    std::vector<WorkloadSpec> quick{spec2006Suite().at(4),
                                    spec2006Suite().at(5),
                                    phoronixSuite().at(12)};
    PtFootprint footprint;
    const std::vector<PerfRow> rows =
        comparePolicies(config, quick, DefenseKind::None,
                        DefenseKind::Cta, &footprint);
    ASSERT_EQ(rows.size(), quick.size());
    for (const PerfRow &row : rows) {
        EXPECT_NEAR(row.deltaPct(), 0.0, 0.5)
            << row.name << ": modeled overhead should be ~0%";
    }
    // Section 6.3: the page-table footprint fits the 4 MiB zone.
    EXPECT_GT(footprint.peakTableBytes, 0u);
    EXPECT_LT(footprint.peakTableBytes, footprint.ptpCapacityBytes);
    EXPECT_EQ(footprint.pteAllocFailures, 0u);
}

TEST(PerfHarness, UndersizedPtpShowsPressure)
{
    // When the zone is too small for the workload's tables, pressure
    // events appear — the §6.3 swapping caveat, observable.
    MachineConfig config;
    config.ptpBytes = 128 * KiB;
    std::vector<WorkloadSpec> heavy{spec2006Suite().at(3)}; // mcf
    PtFootprint footprint;
    const std::vector<PerfRow> rows = comparePolicies(
        config, heavy, DefenseKind::None, DefenseKind::Cta,
        &footprint);
    // Reclaim absorbs the pressure (no hard failures)...
    EXPECT_GT(footprint.ptReclaims, 0u);
    EXPECT_EQ(footprint.pteAllocFailures, 0u);
    // ...at a measurable cost: evicted regions re-fault, so the
    // protected machine's modeled score drops.
    EXPECT_LT(rows[0].deltaPct(), -0.5);
}

} // namespace
} // namespace ctamem::sim
