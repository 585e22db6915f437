/**
 * @file
 * Ablation from Section 5's discussion: the low water mark *without*
 * cell-type awareness.  If ZONE_PTP happens to consist of anti-cells,
 * the dominant flip direction is upward and the expected number of
 * exploitable PTEs explodes (paper: 3354.7, attack time 3.2 hours) —
 * demonstrating that CTA, not the zone boundary, carries the defense.
 * Exits 1 when either expectation misses the paper's by more than 1%.
 */

#include <cmath>
#include <iomanip>
#include <iostream>

#include "model/security_model.hh"
#include "sim/scenarios.hh"

int
main()
{
    using namespace ctamem;
    using namespace ctamem::model;

    std::cout << "Ablation: 8 GiB system, 32 MiB ZONE_PTP, "
                 "Pf=1e-4\n\n";
    std::cout << std::left << std::setw(28) << "zone cells"
              << std::setw(18) << "E[exploitable]" << std::setw(18)
              << "attack time" << '\n';

    bool matches = true;
    for (const auto &[label, cells] :
         sim::scenarios::lwmZoneCases()) {
        SystemParams params;
        params.zoneCells = cells;
        const double expected = expectedExploitablePtes(params);
        const double paper =
            cells == dram::CellType::True ? 6.7 : 3354.7;
        matches &= std::abs(expected - paper) <= 0.01 * paper;
        const AttackTime time = expectedAttackTime(params);
        std::cout << std::setw(28) << label << std::setw(18)
                  << std::setprecision(6) << expected;
        if (time.avgDays >= 1.0) {
            std::cout << std::setprecision(4) << time.avgDays
                      << " days";
        } else {
            std::cout << std::setprecision(3) << time.avgDays * 24.0
                      << " hours";
        }
        std::cout << '\n';
    }

    std::cout << "\npaper reference: true-cells 6.7 PTEs / 57.6 days "
                 "(unrestricted); anti-cells 3354.7 PTEs / 3.2 "
                 "hours.\n";
    std::cout << "E[exploitable] within 1% of the paper: "
              << (matches ? "YES" : "NO") << '\n';
    return matches ? 0 : 1;
}
