#include "attack/pagesize_attack.hh"

#include <algorithm>

#include "attack/exploit.hh"
#include "common/log.hh"
#include "paging/arch.hh"

namespace ctamem::attack {

using kernel::Kernel;

AttackResult
runPageSizeAttack(Kernel &kernel, dram::RowHammerEngine &engine,
                  bool sweep_from_top)
{
    constexpr unsigned largeMappings = 128;

    const cta::PtpLayout *ptp = kernel.ptpLayout();
    if (!ptp)
        fatal("the page-size attack targets CTA systems; boot with "
              "AllocPolicy::Cta");

    AttackResult result;
    const int pid = kernel.createProcess("ps-attacker");
    AttackerContext ctx(kernel, engine, pid);
    const paging::PageFlags rw{true, false, false};

    // Populate ZONE_PTP with leaf tables worth hijacking.
    ctx.spray(64, 64 * KiB, 0);

    // Large pages whose first table-granule holds crafted PTEs
    // sweeping the top-of-memory region where ZONE_PTP
    // architecturally lives.
    const paging::Arch &arch = kernel.arch();
    const std::uint64_t block_bytes = arch.levelCoverage(2);
    const std::uint64_t capacity = kernel.dram().geometry().capacity();
    const Pfn sweep_base =
        addrToPfn(capacity - 2 * ptp->trueBytes - ptp->skippedAntiBytes);
    const Pfn sweep_frames = addrToPfn(capacity) - sweep_base;
    // Place the large pages in a distant VA region: their page
    // directory is then allocated *after* the spray, several DRAM
    // rows away from the attacker's own upper tables — hammering the
    // PD row does not saw off the branch the attacker sits on.
    constexpr VAddr largeRegion = 0x0000'0020'0000'0000ULL;
    std::vector<VAddr> large_bases;
    for (unsigned m = 0; m < largeMappings; ++m) {
        const VAddr base = kernel.mmapAnonLarge(
            pid, rw, 2, largeRegion + m * block_bytes);
        if (base == 0)
            break;
        large_bases.push_back(base);
        // Stride the sweep so every mapping's slots span the whole
        // top region: whichever PD entry flips, its window contains
        // page-table frames.
        const Pfn stride = std::max<Pfn>(
            1, sweep_frames / arch.entriesPerTable());
        for (std::uint64_t slot = 0; slot < arch.entriesPerTable();
             ++slot) {
            const Pfn target =
                sweep_base + (slot * stride + m) % sweep_frames;
            const std::uint64_t crafted = arch.makeLeaf(
                target, paging::PageFlags{true, true}, 1);
            kernel.writeUser(pid, base + slot * 8, crafted);
        }
    }
    ctx.charge(model::kSprayFillCost);
    if (large_bases.empty()) {
        result.outcome = Outcome::Blocked;
        result.detail = "no large pages available";
        return result;
    }

    // Hammer ZONE_PTP one row at a time, checking after every pass
    // (exactly Algorithm 1's loop structure): at simulation-scale
    // flip rates, blanket hammering would also corrupt the
    // attacker's own PML4/PDPT and sever the very mappings used for
    // detection.  A real attacker faces the same self-destruction
    // hazard and likewise checks per row; sweeping from the bottom
    // of the zone upward postpones the rows holding the oldest
    // (root) tables to the end.
    const std::uint64_t row_bytes = kernel.dram().geometry().rowBytes();
    std::vector<Addr> rows;
    for (const mm::FrameSpan &span : ptp->spans) {
        for (Addr row = pfnToAddr(span.basePfn);
             row < pfnToAddr(span.endPfn()); row += row_bytes) {
            rows.push_back(row);
        }
    }
    if (sweep_from_top)
        std::reverse(rows.begin(), rows.end());
    bool found = false;
    for (auto it = rows.begin(); it != rows.end() && !found; ++it) {
        const dram::Location loc = kernel.dram().locate(*it);
        const dram::HammerResult hammer =
            ctx.hammerSandwich(loc.bank, loc.row);
        result.flipsInduced += hammer.total();
        ++result.hammerPasses;

        // A flipped PS bit exposes the crafted window: the large
        // region now reads page-table (or other ZONE_PTP) content.
        ctx.flushTlb();
        found = exploit(kernel, pid, large_bases, block_bytes, result,
                        "PS-bit flip exposed ZONE_PTP through a "
                        "crafted large page",
                        "kernel secret read via hijacked PS bit");
        ctx.charge(model::kCheckPteCost * large_bases.size() *
                   arch.entriesPerTable());
    }
    if (!found) {
        result.outcome = Outcome::Blocked;
        result.detail =
            ptp->screenedFrames > 0 ?
                "PS-bit screening left no exploitable PD frames" :
                "no PS bit flipped on this module";
    }
    result.attackTime = ctx.elapsed();
    return result;
}

} // namespace ctamem::attack
