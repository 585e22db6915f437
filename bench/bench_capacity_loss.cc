/**
 * @file
 * Reproduces the Section 6.2 effective-memory-capacity analysis:
 * capacity lost to skipped anti-cell rows while carving ZONE_PTP,
 * swept over memory size, ZONE_PTP size, and cell layout, checked
 * against both the analytic worst case (0.78% per 64 MiB at 8 GiB)
 * and the actual CTA zone builder on a simulated module.
 */

#include <iomanip>
#include <iostream>

#include "cta/plan.hh"
#include "dram/module.hh"
#include "model/capacity.hh"

int
main()
{
    using namespace ctamem;
    using namespace ctamem::model;

    std::cout << "Section 6.2: capacity loss from skipped anti-cell "
                 "rows\n\n";
    std::cout << std::left << std::setw(10) << "memory"
              << std::setw(10) << "PTP" << std::setw(26) << "layout"
              << std::setw(14) << "lost bytes" << std::setw(10)
              << "loss %" << '\n';

    struct LayoutCase
    {
        const char *label;
        dram::CellTypeMap map;
    };
    const LayoutCase layouts[] = {
        {"alternating-512 (anti top)",
         dram::CellTypeMap::alternating(512)},
        {"alternating-512 (true top)",
         dram::CellTypeMap::alternating(512, false)},
        {"1000:1 mostly-true", dram::CellTypeMap::mostlyTrue(1000)},
    };

    for (const std::uint64_t mem : {8 * GiB, 16 * GiB, 32 * GiB}) {
        for (const std::uint64_t ptp : {32 * MiB, 64 * MiB}) {
            for (const LayoutCase &layout : layouts) {
                const CapacityLoss loss =
                    analyzeCapacityLoss(layout.map, mem, ptp);
                std::cout << std::setw(10)
                          << (std::to_string(mem / GiB) + "GB")
                          << std::setw(10)
                          << (std::to_string(ptp / MiB) + "MB")
                          << std::setw(26) << layout.label
                          << std::setw(14) << loss.skippedAntiBytes
                          << std::fixed << std::setprecision(3)
                          << loss.lossFraction(mem) * 100.0 << '\n';
                std::cout.unsetf(std::ios::fixed);
            }
        }
    }

    std::cout << "\nanalytic worst case (8GB, 32MB PTP, 512-row "
                 "stripes): "
              << std::fixed << std::setprecision(3)
              << worstCaseLossFraction(512, 128 * KiB, 8 * GiB,
                                       32 * MiB) * 100.0
              << "% (paper: 0.78%)\n";
    std::cout.unsetf(std::ios::fixed);

    // Cross-check against the real zone builder on a small module.
    dram::DramConfig config;
    config.capacity = 256 * MiB;
    config.rowBytes = 128 * KiB;
    config.banks = 1;
    config.cellMap = dram::CellTypeMap::alternating(64);
    dram::DramModule module(config);
    cta::CtaConfig cta_config;
    cta_config.ptpBytes = 2 * MiB;
    const cta::PtpLayout zone = cta::planLayout(module, cta_config);
    const CapacityLoss analytic = analyzeCapacityLoss(
        config.cellMap, config.capacity, cta_config.ptpBytes);
    std::cout << "\nzone-builder cross-check (256MB module): built "
              << zone.skippedAntiBytes << " vs analytic "
              << analytic.skippedAntiBytes << " bytes lost, LWM "
              << zone.lowWaterMark << " vs "
              << analytic.lowWaterMark << '\n';
    return zone.skippedAntiBytes == analytic.skippedAntiBytes ? 0 :
                                                                  1;
}
