#include "attack/catt_bypass.hh"

#include <map>
#include <set>

#include "attack/exploit.hh"
#include "common/log.hh"
#include "paging/arch.hh"

namespace ctamem::attack {

using kernel::Kernel;

namespace {

constexpr paging::PageFlags rwFlags{true, false, false};
constexpr std::uint64_t bytesPerMapping = 64 * KiB;

/** Count table words whose content changed since @p snapshot. */
std::uint64_t
countTableCorruption(Kernel &kernel,
                     const std::map<Addr, std::uint64_t> &snapshot)
{
    std::uint64_t corrupted = 0;
    for (const auto &[addr, old_raw] : snapshot) {
        if (kernel.dram().readU64(addr) != old_raw)
            ++corrupted;
    }
    return corrupted;
}

} // namespace

AttackResult
runRemapBypass(Kernel &kernel, dram::RowHammerEngine &engine)
{
    constexpr unsigned remapRows = 4;

    AttackResult result;
    const int pid = kernel.createProcess("remap-attacker");
    AttackerContext ctx(kernel, engine, pid);

    // The victim system has page tables: spray some so the kernel
    // partition holds a realistic population.
    const std::vector<VAddr> mappings =
        ctx.spray(256, bytesPerMapping, 0);

    // Attacker-owned aggressor arena (user partition).
    const VAddr arena = kernel.mmapAnon(pid, 4 * MiB, rwFlags);
    for (VAddr va = arena; va < arena + 4 * MiB;
         va += kernel.pageBytes())
        kernel.touchUser(pid, va);
    ctx.charge(model::kSprayFillCost);

    // "Manufacturer" re-mapping: swap attacker rows device-adjacent
    // to page-table rows (like-for-like cell types only).
    dram::DramModule &module = kernel.dram();
    std::set<std::pair<std::uint64_t, std::uint64_t>> pt_rows;
    for (const auto &[pfn, level] : kernel.pageTableFrames()) {
        const dram::Location loc = module.locate(pfnToAddr(pfn));
        pt_rows.insert({loc.bank,
                        module.deviceRow(loc.bank, loc.row)});
    }
    std::vector<OwnedRow> owned = ctx.ownedRows();
    std::size_t next_owned = 0;
    std::set<std::pair<std::uint64_t, std::uint64_t>> swapped;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> victims;
    unsigned remapped = 0;
    for (const auto &[bank, pt_device] : pt_rows) {
        if (remapped >= remapRows)
            break;
        if (pt_device == 0 ||
            pt_device + 1 >= module.geometry().rowsPerBank()) {
            continue;
        }
        bool flanked = false;
        for (const std::uint64_t side : {pt_device - 1,
                                         pt_device + 1}) {
            if (pt_rows.contains({bank, side}))
                continue; // don't displace other tables
            if (swapped.contains({bank, side}))
                continue; // one swap per device row
            const dram::CellType side_type =
                module.cellMap().rowType(side);
            while (next_owned < owned.size()) {
                const OwnedRow &candidate = owned[next_owned];
                ++next_owned;
                if (candidate.bank != bank)
                    continue;
                const std::uint64_t cand_device =
                    module.deviceRow(candidate.bank, candidate.row);
                if (cand_device == side ||
                    swapped.contains({bank, cand_device})) {
                    continue;
                }
                if (module.cellMap().rowType(cand_device) != side_type)
                    continue;
                if (pt_rows.contains({bank, cand_device}))
                    continue;
                module.remapRow(bank, candidate.row, side);
                swapped.insert({bank, side});
                swapped.insert({bank, cand_device});
                flanked = true;
                break;
            }
        }
        if (flanked) {
            ++remapped;
            victims.emplace_back(bank,
                                 module.logicalRow(bank, pt_device));
        }
    }
    if (remapped == 0) {
        result.outcome = Outcome::Blocked;
        result.detail = "no like-for-like spare rows available";
        return result;
    }

    const auto snapshot = snapshotTables(kernel, false);

    // Hammer the page-table rows now flanked by re-mapped rows.
    ctx.hammerPass(victims, result);

    result.ptesCorrupted = countTableCorruption(kernel, snapshot);
    ctx.charge(model::kCheckPteCost * mappings.size() *
               (bytesPerMapping / kernel.pageBytes()));
    if (!exploit(kernel, pid, mappings, bytesPerMapping, result, "",
                 "kernel secret read from user mode")) {
        if (result.ptesCorrupted > 0) {
            // The isolation CATT promises is broken: user-driven
            // hammering corrupted kernel page tables through the
            // re-mapping.
            result.outcome = Outcome::KernelCorrupted;
            result.detail = "kernel page tables corrupted through "
                            "re-mapped rows";
        } else {
            result.outcome = Outcome::NoCorruption;
            result.detail = "no kernel corruption induced";
        }
    }
    result.attackTime = ctx.elapsed();
    return result;
}

AttackResult
runDoubleOwnedBypass(Kernel &kernel, dram::RowHammerEngine &engine,
                     unsigned mappings)
{
    constexpr unsigned maxRows = 64;

    AttackResult result;
    const int pid = kernel.createProcess("vbuf-attacker");
    AttackerContext ctx(kernel, engine, pid);

    // Interleave page-table sprays 1:1 with single-page device
    // buffers: in the kernel partition, table frames and double-owned
    // frames alternate, so a single downward flip in a double-owned
    // PTE's low pointer bit lands on a table frame.
    const int fd = kernel.createFile(bytesPerMapping);
    std::vector<VAddr> tables;        //!< sprayed table mappings
    std::vector<VAddr> vbuf_windows;  //!< user windows onto vbuf pages
    for (unsigned i = 0; i < mappings; ++i) {
        const VAddr base =
            kernel.mmapFile(pid, fd, bytesPerMapping, rwFlags);
        if (!kernel.touchUser(pid, base))
            break;
        tables.push_back(base);

        const int vbuf = kernel.createDeviceBuffer(kernel.pageBytes());
        const VAddr window =
            kernel.mmapFile(pid, vbuf, kernel.pageBytes(), rwFlags);
        if (!kernel.touchUser(pid, window))
            break;
        vbuf_windows.push_back(window);
    }
    ctx.charge(model::kSprayFillCost);

    const auto snapshot = snapshotTables(kernel, false);

    // The attacker's double-owned rows flank the table rows: hammer
    // every sandwich it owns (these include rows inside the kernel
    // partition — exactly what CATT assumed impossible), up to
    // maxRows of them.
    for (const auto &[bank, victim] : ctx.findSandwiches()) {
        if (result.hammerPasses >= maxRows)
            break;
        const dram::HammerResult hammer =
            ctx.hammerSandwich(bank, victim);
        ++result.hammerPasses;
        result.flipsInduced += hammer.total();
    }

    result.ptesCorrupted = countTableCorruption(kernel, snapshot);

    // The PTEs that matter are the double-owned windows': their frame
    // pointers live amid the page tables.
    std::vector<VAddr> scan = vbuf_windows;
    scan.insert(scan.end(), tables.begin(), tables.end());
    ctx.charge(model::kCheckPteCost * scan.size());
    if (!exploit(kernel, pid, scan, kernel.pageBytes(), result, "",
                 "kernel secret read via double-owned window")) {
        if (result.ptesCorrupted > 0) {
            result.outcome = Outcome::KernelCorrupted;
            result.detail =
                "page tables corrupted from double-owned rows";
        } else {
            result.outcome = kernel.ptpLayout() ? Outcome::Blocked :
                                                  Outcome::NoCorruption;
            result.detail = kernel.ptpLayout() ?
                "CTA: monotonic PTP pointers unreachable" :
                "no corruption induced";
        }
    }
    result.attackTime = ctx.elapsed();
    return result;
}

} // namespace ctamem::attack
