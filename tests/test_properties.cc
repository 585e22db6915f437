/**
 * @file
 * Parameterized property tests (TEST_P sweeps) over the invariants
 * the whole defense rests on:
 *
 *  - buddy-allocator conservation/uniqueness/coalescing under random
 *    workloads, across range shapes and seeds;
 *  - monotonicity of true-cell words under arbitrary fault masks;
 *  - ZONE_PTP construction invariants across cell layouts and sizes;
 *  - address-mapping bijectivity across geometries;
 *  - walker/AddressSpace agreement over random mapping sets;
 *  - end-to-end: the PTE-spray attack never beats CTA across seeds.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hh"
#include "cta/plan.hh"
#include "dram/module.hh"
#include "mm/buddy.hh"
#include "paging/address_space.hh"
#include "paging/walker.hh"
#include "sim/machine.hh"
#include "theorem_oracle.hh"

namespace ctamem {
namespace {

// ---------------------------------------------------------------
// Buddy allocator properties
// ---------------------------------------------------------------

struct BuddyCase
{
    Pfn base;
    std::uint64_t frames;
    std::uint64_t seed;
};

class BuddyProperty : public ::testing::TestWithParam<BuddyCase>
{
};

TEST_P(BuddyProperty, RandomWorkloadKeepsInvariants)
{
    const BuddyCase param = GetParam();
    mm::BuddyAllocator buddy(param.base, param.frames);
    Rng rng(param.seed);

    const std::uint64_t total = buddy.freeFrames();
    ASSERT_EQ(total, param.frames);

    // Live blocks: head pfn -> order.
    std::map<Pfn, unsigned> live;
    std::uint64_t live_frames = 0;

    for (int step = 0; step < 2000; ++step) {
        const bool do_alloc = live.empty() || rng.chance(0.6);
        if (do_alloc) {
            const unsigned order =
                static_cast<unsigned>(rng.below(4));
            auto pfn = buddy.allocate(order);
            if (!pfn)
                continue; // exhausted at this order: fine
            // Natural alignment and containment.
            ASSERT_EQ(*pfn & ((1ULL << order) - 1), 0u);
            ASSERT_GE(*pfn, param.base);
            ASSERT_LE(*pfn + (1ULL << order),
                      param.base + param.frames);
            // No overlap with any live block.
            for (const auto &[head, o] : live) {
                const bool overlap =
                    *pfn < head + (1ULL << o) &&
                    head < *pfn + (1ULL << order);
                ASSERT_FALSE(overlap)
                    << "block " << *pfn << "/" << order
                    << " overlaps " << head << "/" << o;
            }
            live[*pfn] = order;
            live_frames += 1ULL << order;
        } else {
            auto it = live.begin();
            std::advance(it, rng.below(live.size()));
            buddy.free(it->first, it->second);
            live_frames -= 1ULL << it->second;
            live.erase(it);
        }
        // Conservation at every step.
        ASSERT_EQ(buddy.freeFrames() + live_frames, total);
    }

    // Releasing everything restores full coalescing.
    for (const auto &[head, order] : live)
        buddy.free(head, order);
    EXPECT_EQ(buddy.freeFrames(), total);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BuddyProperty,
    ::testing::Values(BuddyCase{0, 1024, 1}, BuddyCase{0, 1024, 2},
                      BuddyCase{7, 999, 3}, BuddyCase{4096, 4096, 4},
                      BuddyCase{123, 2048, 5}, BuddyCase{0, 64, 6},
                      BuddyCase{1, 63, 7},
                      BuddyCase{1 << 20, 1 << 14, 8}));

// ---------------------------------------------------------------
// Monotonicity properties
// ---------------------------------------------------------------

class MonotonicityProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MonotonicityProperty, DownFlipMasksOnlyDecreaseValues)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < 50000; ++trial) {
        const std::uint64_t before = rng.next();
        const std::uint64_t after = before & rng.next();
        ASSERT_TRUE(cta::reachableByDownFlips(before, after));
        ASSERT_LE(after, before);
        ASSERT_TRUE(cta::monotonicityHolds(before, after));
        // The inverse relation for anti-cells.
        const std::uint64_t up = before | rng.next();
        ASSERT_TRUE(cta::reachableByUpFlips(before, up));
        ASSERT_GE(up, before);
    }
}

TEST_P(MonotonicityProperty, ReachabilityIsConsistent)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < 50000; ++trial) {
        const std::uint64_t a = rng.next();
        const std::uint64_t b = rng.next();
        // Down- and up-reachability are mutually exclusive unless
        // the values are equal.
        if (a != b) {
            ASSERT_FALSE(cta::reachableByDownFlips(a, b) &&
                         cta::reachableByUpFlips(a, b));
        }
        // Reachability is antisymmetric through the value order.
        if (cta::reachableByDownFlips(a, b)) {
            ASSERT_LE(b, a);
        }
        if (cta::reachableByUpFlips(a, b)) {
            ASSERT_GE(b, a);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotonicityProperty,
                         ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------
// ZONE_PTP construction properties across layouts
// ---------------------------------------------------------------

// GTest names each case by the raw bytes of its parameter. The seven
// bytes after `kind` are a member rather than padding so that they are
// zero: padding keeps whatever was on the stack (a canary, a stack
// address) and would give the case a different name in every build.
struct ZoneCase
{
    dram::CellLayoutKind kind;
    std::uint8_t zeroes[7];
    std::uint64_t period;
    std::uint64_t ptpBytes;
};

ZoneCase
zoneCase(dram::CellLayoutKind kind, std::uint64_t period,
         std::uint64_t ptp_bytes)
{
    return ZoneCase{kind, {}, period, ptp_bytes};
}

class PtpZoneProperty : public ::testing::TestWithParam<ZoneCase>
{
};

TEST_P(PtpZoneProperty, ConstructionInvariants)
{
    const ZoneCase param = GetParam();
    dram::DramConfig config;
    config.capacity = 256 * MiB;
    config.rowBytes = 128 * KiB;
    config.banks = 1;
    config.cellMap = dram::CellTypeMap(param.kind, param.period);
    config.seed = 3;
    dram::DramModule module(config);

    cta::CtaConfig cta_config;
    cta_config.ptpBytes = param.ptpBytes;
    const cta::PtpLayout zone = cta::planLayout(module, cta_config);

    // Exact capacity collected, all of it in the allocatable
    // partition.
    EXPECT_EQ(zone.trueBytes, param.ptpBytes);
    std::uint64_t partition_frames = 0;
    for (const mm::FrameSpan &span : zone.levelSpans[1])
        partition_frames += span.frames;
    EXPECT_EQ(partition_frames * pageSize, param.ptpBytes);

    std::uint64_t span_frames = 0;
    Pfn prev_base = 0;
    bool first = true;
    for (const mm::FrameSpan &span : zone.spans) {
        span_frames += span.frames;
        // Ordered top of memory first, no overlap.
        if (!first) {
            EXPECT_LE(span.endPfn(), prev_base);
        }
        first = false;
        prev_base = span.basePfn;
        // Entirely above the low water mark and in true cells.
        EXPECT_GE(pfnToAddr(span.basePfn), zone.lowWaterMark);
        for (Pfn pfn = span.basePfn; pfn < span.endPfn();
             pfn += config.rowBytes / pageSize) {
            EXPECT_EQ(module.cellTypeAt(pfnToAddr(pfn)),
                      dram::CellType::True);
        }
    }
    EXPECT_EQ(span_frames * pageSize, param.ptpBytes);

    // Accounting: collected + skipped == scanned region above LWM.
    EXPECT_EQ(zone.trueBytes + zone.skippedAntiBytes,
              config.capacity - zone.lowWaterMark);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, PtpZoneProperty,
    ::testing::Values(
        zoneCase(dram::CellLayoutKind::AlternatingTrueFirst, 64,
                 2 * MiB),
        zoneCase(dram::CellLayoutKind::AlternatingAntiFirst, 64,
                 2 * MiB),
        zoneCase(dram::CellLayoutKind::AlternatingTrueFirst, 16,
                 4 * MiB),
        zoneCase(dram::CellLayoutKind::AlternatingAntiFirst, 7,
                 1 * MiB),
        zoneCase(dram::CellLayoutKind::MostlyTrue, 64, 8 * MiB),
        zoneCase(dram::CellLayoutKind::AllTrue, 1, 16 * MiB),
        zoneCase(dram::CellLayoutKind::AlternatingTrueFirst, 512,
                 32 * MiB)));

// ---------------------------------------------------------------
// Address mapping bijectivity across geometries
// ---------------------------------------------------------------

struct GeometryCase
{
    std::uint64_t capacity;
    std::uint64_t rowBytes;
    std::uint64_t banks;
    dram::AddressScheme scheme;
};

/**
 * Names a case by its fields, e.g. 256MiB_128KiB_8banks_RowInterleaved.
 * Without it gtest prints the struct's bytes, padding included, so
 * the test names would change from build to build.
 */
void
PrintTo(const GeometryCase &param, std::ostream *os)
{
    *os << param.capacity / MiB << "MiB_" << param.rowBytes / KiB
        << "KiB_" << param.banks << "banks_"
        << (param.scheme == dram::AddressScheme::BankBlocked
                ? "BankBlocked"
                : "RowInterleaved");
}

class GeometryProperty
    : public ::testing::TestWithParam<GeometryCase>
{
};

TEST_P(GeometryProperty, LocateAddressRoundTrip)
{
    const GeometryCase param = GetParam();
    dram::Geometry geom(param.capacity, param.rowBytes, param.banks,
                        param.scheme);
    Rng rng(17);
    std::set<std::uint64_t> seen_rows;
    for (int trial = 0; trial < 5000; ++trial) {
        const Addr addr = rng.below(param.capacity);
        const dram::Location loc = geom.locate(addr);
        ASSERT_LT(loc.bank, param.banks);
        ASSERT_LT(loc.row, geom.rowsPerBank());
        ASSERT_LT(loc.column, param.rowBytes);
        ASSERT_EQ(geom.address(loc), addr);
        seen_rows.insert(loc.bank * geom.rowsPerBank() + loc.row);
    }
    EXPECT_GT(seen_rows.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GeometryProperty,
    ::testing::Values(
        GeometryCase{256 * MiB, 128 * KiB, 1,
                     dram::AddressScheme::BankBlocked},
        GeometryCase{256 * MiB, 128 * KiB, 8,
                     dram::AddressScheme::BankBlocked},
        GeometryCase{256 * MiB, 128 * KiB, 8,
                     dram::AddressScheme::RowInterleaved},
        GeometryCase{1 * GiB, 64 * KiB, 16,
                     dram::AddressScheme::RowInterleaved},
        GeometryCase{64 * MiB, 8 * KiB, 4,
                     dram::AddressScheme::BankBlocked}));

// ---------------------------------------------------------------
// Walker vs AddressSpace agreement over random mappings
// ---------------------------------------------------------------

class PagingProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PagingProperty, RandomMappingsTranslateExactly)
{
    dram::DramConfig config;
    config.capacity = 256 * MiB;
    config.rowBytes = 128 * KiB;
    config.banks = 1;
    dram::DramModule module(config);

    Pfn next_table = addrToPfn(1 * MiB);
    auto alloc = [&](unsigned) {
        std::vector<std::uint8_t> zeros(pageSize, 0);
        module.write(pfnToAddr(next_table), zeros.data(),
                     zeros.size());
        return std::optional<Pfn>(next_table++);
    };
    const Pfn root = *alloc(4);
    paging::AddressSpace space(module, alloc, [](Pfn) {}, root);
    paging::PageWalker walker(module);

    Rng rng(GetParam());
    std::map<VAddr, Pfn> expected;
    for (int i = 0; i < 300; ++i) {
        const VAddr va =
            pageAlignDown(rng.below(1ULL << 40));
        const Pfn frame = addrToPfn(64 * MiB) + rng.below(8192);
        if (expected.contains(va))
            continue;
        ASSERT_TRUE(space.map(va, frame,
                              paging::PageFlags{true, true}));
        expected[va] = frame;
    }
    // Unmap a random third.
    std::vector<VAddr> removed;
    for (const auto &[va, frame] : expected) {
        if (rng.chance(0.33))
            removed.push_back(va);
    }
    for (VAddr va : removed) {
        ASSERT_TRUE(space.unmap(va));
        expected.erase(va);
    }

    for (const auto &[va, frame] : expected) {
        const paging::WalkResult result = walker.walk(
            root, va + 0x123, paging::AccessType::Read,
            paging::Privilege::User);
        ASSERT_TRUE(result.ok()) << std::hex << va;
        ASSERT_EQ(result.phys, pfnToAddr(frame) + 0x123);
    }
    for (VAddr va : removed) {
        EXPECT_EQ(walker.walk(root, va, paging::AccessType::Read,
                              paging::Privilege::User)
                      .fault,
                  paging::Fault::NotPresent);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PagingProperty,
                         ::testing::Values(100, 200, 300));

// ---------------------------------------------------------------
// End to end: CTA holds across module seeds
// ---------------------------------------------------------------

class CtaHoldsProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CtaHoldsProperty, SprayAttackNeverEscalates)
{
    sim::MachineConfig config;
    config.defense = defense::DefenseKind::Cta;
    config.seed = GetParam();
    sim::Machine machine(config);
    const attack::AttackResult result =
        machine.runAttack(sim::AttackKind::ProjectZero);
    EXPECT_NE(result.outcome, attack::Outcome::Escalated);
    EXPECT_NE(result.outcome, attack::Outcome::SelfReference);
    EXPECT_TRUE(machine.kernel().auditTheorem().holds());
}

TEST_P(CtaHoldsProperty, SprayAttackBeatsTheBaseline)
{
    sim::MachineConfig config;
    config.defense = defense::DefenseKind::None;
    config.seed = GetParam();
    sim::Machine machine(config);
    const attack::AttackResult result =
        machine.runAttack(sim::AttackKind::ProjectZero);
    EXPECT_EQ(result.outcome, attack::Outcome::Escalated)
        << result.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CtaHoldsProperty,
                         ::testing::Values(1234, 99, 2025, 777777));

} // namespace
} // namespace ctamem
