/**
 * @file
 * Ablations over the design choices DESIGN.md calls out:
 *
 *  1. the indicator restriction depth (how many '0's to enforce) —
 *     security vs reserved-memory trade-off;
 *  2. the cell-interleave period N — capacity-loss sensitivity;
 *  3. multi-level zones + PS-bit screening — frames sacrificed vs
 *     the Section 7 page-size attack outcome.
 */

#include <iomanip>
#include <iostream>

#include "attack/pagesize_attack.hh"
#include "common/combinatorics.hh"
#include "cta/plan.hh"
#include "dram/module.hh"
#include "kernel/kernel.hh"
#include "model/capacity.hh"
#include "model/security_model.hh"
#include "sim/scenarios.hh"

namespace {

using namespace ctamem;

void
restrictionSweep()
{
    std::cout << "1. Indicator-restriction depth (8 GiB, 32 MiB "
                 "ZONE_PTP, Pf=1e-4)\n";
    std::cout << std::left << std::setw(12) << "min zeros"
              << std::setw(16) << "E[exploitable]" << std::setw(16)
              << "attack days" << std::setw(20)
              << "reserved memory %" << '\n';
    for (const unsigned zeros : sim::scenarios::restrictionDepths()) {
        model::SystemParams params;
        params.minIndicatorZeros = zeros;
        const double expected =
            model::expectedExploitablePtes(params);
        const model::AttackTime time =
            model::expectedAttackTime(params);
        // Reserved regions: indicator values with < zeros zeros.
        const unsigned n = params.indicatorBits();
        double reserved = 0;
        for (unsigned k = 0; k < zeros; ++k)
            reserved += choose(n, k);
        const double reserved_pct =
            reserved / static_cast<double>(1ULL << n) * 100.0;
        std::cout << std::setw(12) << zeros << std::setw(16)
                  << std::setprecision(4) << expected << std::setw(16)
                  << time.avgDays << std::setw(20)
                  << std::setprecision(3) << reserved_pct << '\n';
    }
    std::cout << "(the paper picks 2: E[PTEs] drops 6 orders of "
                 "magnitude for 3.1% of memory reserved to "
                 "kernel/trusted use)\n\n";
}

void
periodSweep()
{
    std::cout << "2. Cell-interleave period N (8 GiB, 32 MiB "
                 "ZONE_PTP, 128 KiB rows)\n";
    std::cout << std::left << std::setw(12) << "N rows"
              << std::setw(16) << "stripe size" << std::setw(22)
              << "worst-case loss %" << std::setw(18)
              << "anti-top loss %" << '\n';
    for (const std::uint64_t period :
         sim::scenarios::interleavePeriods()) {
        const double worst = model::worstCaseLossFraction(
            period, 128 * KiB, 8 * GiB, 32 * MiB);
        const model::CapacityLoss actual =
            model::analyzeCapacityLoss(
                dram::CellTypeMap::alternating(period), 8 * GiB,
                32 * MiB);
        std::cout << std::setw(12) << period << std::setw(16)
                  << (std::to_string(period * 128 / 1024) + " MiB")
                  << std::setw(22) << std::setprecision(3)
                  << worst * 100.0 << std::setw(18)
                  << actual.lossFraction(8 * GiB) * 100.0 << '\n';
    }
    std::cout << "(loss scales with the stripe size, not with "
                 "ZONE_PTP: one skipped stripe dominates)\n\n";
}

void
screeningAblation()
{
    std::cout << "3. Multi-level zones + PS-bit screening vs the "
                 "Section 7 page-size attack (512 MiB machine)\n";
    std::cout << std::left << std::setw(10) << "Pf"
              << std::setw(14) << "multi-level" << std::setw(12)
              << "screening" << std::setw(18) << "screened frames"
              << std::setw(18) << "attack outcome" << '\n';

    for (const sim::scenarios::ScreeningCase &ablation :
         sim::scenarios::screeningCases()) {
        const kernel::KernelConfig config =
            sim::scenarios::screeningKernelConfig(ablation);
        kernel::Kernel kernel(config);
        dram::RowHammerEngine engine(kernel.dram());
        // Allocator-aware sweep order (see runPageSizeAttack).
        const attack::AttackResult result = attack::runPageSizeAttack(
            kernel, engine,
            /*sweep_from_top=*/!ablation.multiLevelZones);
        std::cout << std::setw(10) << ablation.pf << std::setw(14)
                  << (ablation.multiLevelZones ? "yes" : "no")
                  << std::setw(12)
                  << (ablation.screenPageSizeBit ? "yes" : "no")
                  << std::setw(18)
                  << kernel.ptpLayout()->screenedFrames
                  << std::setw(18)
                  << attack::outcomeName(result.outcome) << '\n';
    }
    std::cout << "(without screening, large-page PS bits in "
                 "true-cells are a '1'->'0' target; screening "
                 "removes every exploitable PD frame)\n";
}

} // namespace

int
main()
{
    restrictionSweep();
    periodSweep();
    screeningAblation();
    return 0;
}
