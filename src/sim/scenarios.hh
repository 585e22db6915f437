/**
 * @file
 * Shared scenario presets: the canonical defense lists, attack lists
 * and campaign grids the benches, examples and checked-in manifests
 * all draw from.
 *
 * The Table-1 grid (paperDefault()) has a matching manifest,
 * `scenarios/paper-default.json`; a scenario test asserts the two
 * stay cell-for-cell identical, so editing one means editing the
 * other.  Every other checked-in manifest is its experiment's only
 * definition.  Benches render from these presets instead of
 * hand-rolling their own defense/attack vectors.
 */

#ifndef CTAMEM_SIM_SCENARIOS_HH
#define CTAMEM_SIM_SCENARIOS_HH

#include <vector>

#include "kernel/kernel.hh"
#include "sim/campaign.hh"

namespace ctamem::sim::scenarios {

/** @name Table-1 attack matrix (bench_table1_attack_matrix) */
/** @{ */

/** The eight defense columns, in Table-1 print order. */
std::vector<defense::DefenseKind> table1Defenses();

/** The five attack rows, in Table-1 print order. */
std::vector<AttackKind> table1Attacks();

/** One default-parameter machine per Table-1 defense column. */
std::vector<MachineConfig> table1Configs();

/**
 * The whole Table-1 grid as a campaign — the programmatic twin of
 * `scenarios/paper-default.json`.
 */
Campaign paperDefault();
/** @} */

/**
 * The Section-5 attack-time sweep (bench_attack_time): unprotected
 * and CTA machines against the three escalation attacks.
 */
Campaign attackTime();

/** @name Full-scale Algorithm-1 pricing grid (bench_attack_time) */
/** @{ */
struct PricingPoint
{
    std::uint64_t memBytes;
    std::uint64_t ptpBytes;
};

/** 8/16/32 GiB x 32/64 MiB ZONE_PTP, in print order. */
std::vector<PricingPoint> pricingGrid();
/** @} */

/** @name Design-ablation parameter sets (bench_ablation_*) */
/** @{ */

/** Indicator-restriction depths to sweep (paper picks 2). */
std::vector<unsigned> restrictionDepths();

/** Cell-interleave periods N, in rows (paper picks 512). */
std::vector<std::uint64_t> interleavePeriods();

/** One Section-7 screening-ablation case. */
struct ScreeningCase
{
    double pf;
    bool multiLevelZones;
    bool screenPageSizeBit;
};

/** The three screening cases, weakest mitigation first. */
std::vector<ScreeningCase> screeningCases();

/**
 * The 512 MiB CTA kernel the screening ablation boots, with the
 * case's zone/screening switches applied.
 */
kernel::KernelConfig screeningKernelConfig(const ScreeningCase &c);

/** One LWM-only ablation case (bench_ablation_lwm_only). */
struct LwmZoneCase
{
    const char *label;
    dram::CellType cells;
};

/** ZONE_PTP on true-cells (CTA) vs anti-cells (LWM only). */
std::vector<LwmZoneCase> lwmZoneCases();
/** @} */

} // namespace ctamem::sim::scenarios

#endif // CTAMEM_SIM_SCENARIOS_HH
