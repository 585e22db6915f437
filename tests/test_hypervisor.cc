/**
 * @file
 * Tests of the Section 7 hypervisor zoning: ZONE_HYPERVISOR
 * reservation, per-guest slices, cross-VM isolation, and the global
 * no-self-reference argument.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "common/rng.hh"
#include "cta/hypervisor.hh"
#include "dram/module.hh"
#include "theorem_oracle.hh"

namespace ctamem::cta {
namespace {

using dram::CellTypeMap;
using dram::DramConfig;
using dram::DramModule;

DramConfig
hvConfig(CellTypeMap map = CellTypeMap::alternating(64))
{
    DramConfig config;
    config.capacity = 256 * MiB;
    config.rowBytes = 128 * KiB;
    config.banks = 1;
    config.cellMap = map;
    config.seed = 33;
    return config;
}

TEST(Hypervisor, ReservesTrueCellsOnTop)
{
    DramModule module(hvConfig());
    Hypervisor hv(module, 8 * MiB);
    EXPECT_EQ(hv.remainingBytes(), 8 * MiB);
    // Top 8 MiB stripe is anti (period 64 = 8 MiB stripes, 32
    // stripes, top index 31 odd): skipped.
    EXPECT_EQ(hv.skippedAntiBytes(), 8 * MiB);
    EXPECT_EQ(hv.zoneBase(), 240 * MiB);
}

TEST(Hypervisor, GuestSlicesAreDisjointAndOrdered)
{
    DramModule module(hvConfig());
    Hypervisor hv(module, 8 * MiB);
    const GuestZone a = hv.assignGuestZone(2 * MiB);
    const GuestZone b = hv.assignGuestZone(2 * MiB);
    const GuestZone c = hv.assignGuestZone(1 * MiB);
    EXPECT_EQ(hv.remainingBytes(), 3 * MiB);
    EXPECT_TRUE(hv.auditIsolation());
    // Earlier guests sit higher.
    EXPECT_GT(a.lowestAddr(), b.lowestAddr());
    EXPECT_GT(b.lowestAddr(), c.lowestAddr());
    // All above the shared low water mark.
    EXPECT_GE(c.lowestAddr(), hv.zoneBase());
}

TEST(Hypervisor, ExhaustionIsFatal)
{
    DramModule module(hvConfig());
    Hypervisor hv(module, 4 * MiB);
    hv.assignGuestZone(3 * MiB);
    EXPECT_THROW(hv.assignGuestZone(2 * MiB), ctamem::FatalError);
    EXPECT_THROW(hv.assignGuestZone(0), ctamem::FatalError);
}

TEST(Hypervisor, CrossVmNoSelfReference)
{
    // The global theorem: guest data pointers live below zoneBase;
    // with true-cell storage a corrupted pointer only decreases, so
    // it can never reach *any* guest's page-table slice — its own or
    // a co-tenant's.  Property-check over sampled pointers and
    // random down-flip masks.
    DramModule module(hvConfig());
    Hypervisor hv(module, 8 * MiB);
    const GuestZone a = hv.assignGuestZone(2 * MiB);
    const GuestZone b = hv.assignGuestZone(2 * MiB);
    const Addr base = hv.zoneBase();

    Rng rng(9);
    for (int trial = 0; trial < 20000; ++trial) {
        const std::uint64_t pointer = rng.below(base);
        const std::uint64_t corrupted =
            pointer & rng.next(); // an arbitrary set of 1->0 flips
        ASSERT_TRUE(reachableByDownFlips(pointer, corrupted));
        EXPECT_LT(corrupted, base);
        EXPECT_LT(corrupted, a.lowestAddr());
        EXPECT_LT(corrupted, b.lowestAddr());
    }
}

TEST(Hypervisor, RowAlignmentEnforced)
{
    DramModule module(hvConfig());
    EXPECT_THROW(Hypervisor(module, 100 * KiB), ctamem::FatalError);
}

TEST(Hypervisor, AllAntiModuleRejected)
{
    DramModule module(
        hvConfig(CellTypeMap::uniform(dram::CellType::Anti)));
    EXPECT_THROW(Hypervisor(module, 4 * MiB), ctamem::FatalError);
}

} // namespace
} // namespace ctamem::cta
