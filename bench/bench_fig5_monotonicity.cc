/**
 * @file
 * Reproduces Figures 4 and 5 empirically: where do corrupted PTE
 * pointers land under a RowHammer attack?
 *
 * Figure 5a (monotonic pointers): PTEs stored in true-cells — every
 * corrupted pointer moves to a *lower* physical address, so none can
 * climb into the page-table zone.
 * Figure 5b (no monotonicity): PTEs stored in anti-cells — corrupted
 * pointers move upward and some land at/above the low water mark:
 * the self-reference ingredient.
 */

#include <iomanip>
#include <iostream>
#include <map>
#include <vector>

#include "dram/hammer.hh"
#include "dram/module.hh"
#include "paging/arch.hh"

namespace {

using namespace ctamem;

struct Series
{
    std::uint64_t ptes = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t movedDown = 0;
    std::uint64_t movedUp = 0;
    std::uint64_t reachedZone = 0; //!< pointer landed >= LWM
};

/**
 * Fill rows [2, rows+2) with synthetic PTEs pointing below the LWM,
 * double-side hammer each, and classify pointer movement.
 */
Series
runSeries(dram::CellType zone_cells, double pf, std::uint64_t rows)
{
    dram::DramConfig config;
    config.capacity = 64 * MiB;
    config.rowBytes = 128 * KiB;
    config.banks = 1;
    config.cellMap = dram::CellTypeMap::uniform(zone_cells);
    config.errors.pf = pf;
    config.seed = 77;
    dram::DramModule module(config);
    dram::RowHammerEngine engine(module);

    const Addr lwm = 48 * MiB; // pretend zone base for the experiment
    const paging::PageFlags flags{true, true, false};

    // Plant PTEs: pointers spread over the memory below the LWM,
    // biased high (spray-like content, one zero in the top bits).
    std::map<Addr, std::uint64_t> before;
    for (std::uint64_t row = 2; row < rows + 2; ++row) {
        const Addr base = row * config.rowBytes;
        for (std::uint64_t slot = 0;
             slot < config.rowBytes / 8; ++slot) {
            const Pfn target = addrToPfn(
                (slot * 4096 + row * 65536) % lwm);
            const std::uint64_t raw =
                paging::kX86_64.makeLeaf(target, flags, 1);
            module.writeU64(base + slot * 8, raw);
            before.emplace(base + slot * 8, raw);
        }
    }

    for (std::uint64_t row = 2; row < rows + 2; ++row)
        engine.hammerDoubleSided(0, row);

    Series series;
    series.ptes = before.size();
    for (const auto &[addr, old_raw] : before) {
        const std::uint64_t new_raw = module.readU64(addr);
        if (new_raw == old_raw)
            continue;
        ++series.corrupted;
        const paging::Arch &x86 = paging::kX86_64;
        if (x86.pfn(new_raw) < x86.pfn(old_raw))
            ++series.movedDown;
        else if (x86.pfn(new_raw) > x86.pfn(old_raw))
            ++series.movedUp;
        if (x86.present(new_raw) && pfnToAddr(x86.pfn(new_raw)) >= lwm)
            ++series.reachedZone;
    }
    return series;
}

void
printSeries(const char *label, const Series &series)
{
    std::cout << std::left << std::setw(26) << label << std::right
              << std::setw(10) << series.ptes << std::setw(12)
              << series.corrupted << std::setw(12) << series.movedDown
              << std::setw(10) << series.movedUp << std::setw(14)
              << series.reachedZone << '\n';
}

} // namespace

int
main()
{
    std::cout << "Figure 5 reproduction: pointer movement under "
                 "double-sided hammering (Pf=1e-3, 64 rows of "
                 "PTEs)\n\n";
    std::cout << std::left << std::setw(26) << "placement"
              << std::right << std::setw(10) << "PTEs"
              << std::setw(12) << "corrupted" << std::setw(12)
              << "moved down" << std::setw(10) << "moved up"
              << std::setw(14) << "reached zone" << '\n';

    const Series true_cells =
        runSeries(ctamem::dram::CellType::True, 1e-3, 64);
    const Series anti_cells =
        runSeries(ctamem::dram::CellType::Anti, 1e-3, 64);
    printSeries("true-cells (Fig 5a)", true_cells);
    printSeries("anti-cells (Fig 5b)", anti_cells);

    std::cout << "\nshape check (the paper's footnote 4: 0.2% of "
                 "vulnerable true-cells flip the wrong way, so the "
                 "idealized zero is a ~500:1 statistical dominance):\n"
              << "  true-cells: down/up ratio = "
              << true_cells.movedDown << "/" << true_cells.movedUp
              << ", reached zone " << true_cells.reachedZone << '\n'
              << "  anti-cells: up/down ratio = "
              << anti_cells.movedUp << "/" << anti_cells.movedDown
              << ", reached zone " << anti_cells.reachedZone << '\n';

    const bool holds =
        true_cells.movedDown > 50 * true_cells.movedUp &&
        anti_cells.movedUp > 50 * anti_cells.movedDown &&
        anti_cells.reachedZone >
            20 * (true_cells.reachedZone + 1);
    std::cout << "monotonicity dominance holds: "
              << (holds ? "YES" : "NO") << '\n';
    return holds ? 0 : 1;
}
