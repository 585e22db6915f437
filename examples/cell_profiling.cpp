/**
 * @file
 * The system-level workflow a deployment would run once per module:
 * identify true-cell/anti-cell regions with the retention protocol
 * (Section 2.2), feed them to the CTA zone builder, and report the
 * resulting ZONE_PTP layout and capacity cost (Section 6.2).
 *
 *   ./build/examples/cell_profiling
 */

#include <iomanip>
#include <iostream>

#include "cta/plan.hh"
#include "dram/module.hh"
#include "profile/cell_profiler.hh"
#include "profile/retention_profiler.hh"

int
main()
{
    using namespace ctamem;

    dram::DramConfig config;
    config.capacity = 256 * MiB;
    config.rowBytes = 128 * KiB;
    config.banks = 1;
    config.cellMap = dram::CellTypeMap::alternating(64); // unknown to us
    config.seed = 11;
    dram::DramModule module(config);

    // -- 1. cell-type identification ------------------------------
    profile::CellTypeProfiler profiler(module);
    const auto regions = profiler.profileRegions(
        0, 0, module.geometry().rowsPerBank() - 1);
    std::cout << "cell-type profile found " << regions.size()
              << " regions:\n";
    for (std::size_t i = 0; i < regions.size() && i < 6; ++i) {
        const profile::RowRegion &region = regions[i];
        std::cout << "  rows " << std::setw(5) << region.firstRow
                  << " .. " << std::setw(5) << region.lastRow << "  "
                  << dram::cellTypeName(region.type) << "s ("
                  << region.rows() * config.rowBytes / MiB
                  << " MiB)\n";
    }
    if (regions.size() > 6)
        std::cout << "  ... (" << regions.size() - 6 << " more)\n";

    // -- 2. retention profiling (cold-boot canary candidates) -----
    profile::RetentionProfiler retention(module);
    const auto canaries = retention.findCanaries(0, 64 * KiB, 4, 512);
    std::cout << "\nlongest-retention cells in the first 64 KiB:\n";
    for (const profile::CellRetention &cell : canaries) {
        std::cout << "  addr 0x" << std::hex << cell.addr << std::dec
                  << " bit " << cell.bit << ": "
                  << static_cast<double>(cell.retention) / seconds
                  << " s (" << dram::cellTypeName(cell.type) << ")\n";
    }

    // -- 3. ZONE_PTP construction ----------------------------------
    cta::CtaConfig cta_config;
    cta_config.ptpBytes = 2 * MiB;
    const cta::PtpLayout zone = cta::planLayout(module, cta_config);
    std::cout << "\nZONE_PTP built from the profile:\n"
              << "  true-cell bytes: " << zone.trueBytes / MiB
              << " MiB in " << zone.spans.size()
              << " sub-zone(s)\n"
              << "  low water mark:  0x" << std::hex
              << zone.lowWaterMark << std::dec << '\n'
              << "  capacity lost:   "
              << zone.skippedAntiBytes / MiB << " MiB ("
              << std::fixed << std::setprecision(2)
              << 100.0 * static_cast<double>(zone.skippedAntiBytes) /
                     static_cast<double>(config.capacity)
              << "% of the module)\n";

    // Every sub-zone row must have profiled as true-cells.
    bool consistent = true;
    for (const mm::FrameSpan &span : zone.spans) {
        for (Pfn pfn = span.basePfn; pfn < span.endPfn();
             pfn += config.rowBytes / pageSize) {
            const dram::Location loc = module.locate(pfnToAddr(pfn));
            consistent &= profiler.classifyRow(loc.bank, loc.row) ==
                          dram::CellType::True;
        }
    }
    std::cout << "\nprofiler agrees with the zone builder on every "
                 "sub-zone row: "
              << (consistent ? "YES" : "NO") << '\n';
    return consistent ? 0 : 1;
}
