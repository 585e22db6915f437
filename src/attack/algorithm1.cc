#include "attack/algorithm1.hh"

#include <map>

#include "attack/exploit.hh"
#include "common/bitops.hh"
#include "common/log.hh"
#include "paging/arch.hh"

namespace ctamem::attack {

using kernel::Kernel;

AttackResult
runAlgorithm1(Kernel &kernel, dram::RowHammerEngine &engine,
              Algorithm1Evidence *evidence)
{
    const cta::PtpLayout *ptp = kernel.ptpLayout();
    if (!ptp)
        fatal("Algorithm 1 targets a CTA system; boot with "
              "AllocPolicy::Cta");

    AttackResult result;
    const int pid = kernel.createProcess("alg1-attacker");
    AttackerContext ctx(kernel, engine, pid);

    // Step (1): fill ZONE_PTP with PTEs pointing at one shared page.
    const std::vector<VAddr> mappings = ctx.spray(8192, 64 * KiB, 0);
    ctx.charge(model::kSprayFillCost);
    if (mappings.empty()) {
        result.outcome = Outcome::Blocked;
        result.detail = "spray failed";
        return result;
    }

    // Snapshot every present leaf PTE in ZONE_PTP.
    const paging::Arch &arch = kernel.arch();
    const std::map<Addr, std::uint64_t> before =
        snapshotTables(kernel, true);

    // Step (2): hammer every row of ZONE_PTP (repeatedly translating
    // through PTEs in a row, TLB flushed, activates that row).
    for (const mm::FrameSpan &span : ptp->spans) {
        const Addr base = pfnToAddr(span.basePfn);
        const Addr end = pfnToAddr(span.endPfn());
        const std::uint64_t row_bytes =
            kernel.dram().geometry().rowBytes();
        for (Addr row = base; row < end; row += row_bytes) {
            const dram::Location loc = kernel.dram().locate(row);
            engine.hammerRow(loc.bank, loc.row);
            ctx.charge(model::kHammerRowCost);
            ++result.hammerPasses;
        }
    }
    ctx.flushTlb();

    // Step (3): check all PTEs for self-reference; also collect the
    // monotonicity evidence the theorem predicts.  The engine's row
    // profiles tell us which 64-bit words contain any vulnerable cell
    // at all: a word without one cannot have changed, so its re-read
    // is skipped outright — the attacker's memcmp cost is still
    // charged in full below.
    Algorithm1Evidence local;
    local.ptesBefore = before.size();
    const Addr lwm = ptp->lowWaterMark;
    const std::uint64_t row_bytes =
        kernel.dram().geometry().rowBytes();
    const dram::RowVulnProfile *profile = nullptr;
    std::size_t cell = 0;
    for (const auto &[addr, old_raw] : before) {
        if (!profile || addr < profile->base ||
            addr >= profile->base + row_bytes) {
            const dram::Location loc = kernel.dram().locate(addr);
            const std::uint64_t device =
                kernel.dram().deviceRow(loc.bank, loc.row);
            profile = &engine.rowProfile(loc.bank, device);
            cell = 0;
        }
        const auto word =
            static_cast<std::uint32_t>((addr - profile->base) / 8);
        const std::vector<std::uint32_t> &bits = profile->cellBits;
        while (cell < bits.size() && (bits[cell] >> 6) < word)
            ++cell; // `before` ascends, so this never rewinds
        if (cell >= bits.size() || (bits[cell] >> 6) != word)
            continue; // no vulnerable cell in this word: unchanged
        const std::uint64_t new_raw = kernel.dram().readU64(addr);
        if (new_raw == old_raw)
            continue;
        ++local.ptesCorrupted;
        result.flipsInduced +=
            hammingDistance(new_raw, old_raw);
        if (arch.pfn(new_raw) < arch.pfn(old_raw))
            ++local.pointersMovedDown;
        else if (arch.pfn(new_raw) > arch.pfn(old_raw))
            ++local.pointersMovedUp;
        if (arch.present(new_raw) &&
            pfnToAddr(arch.pfn(new_raw)) >= lwm)
            ++local.selfReferences;
    }
    result.ptesCorrupted = local.ptesCorrupted;
    result.selfReferences = local.selfReferences;
    ctx.charge(model::kCheckPteCost * before.size());

    if (local.selfReferences > 0) {
        auto self_ref =
            detectSelfReference(kernel, pid, mappings, 64 * KiB);
        if (self_ref && escalate(kernel, pid, *self_ref)) {
            result.outcome = Outcome::Escalated;
            result.detail = "CTA breached (statistically expected in "
                            "~1 of 2e5 systems)";
        } else {
            result.outcome = Outcome::SelfReference;
            result.detail = "self-reference present but not "
                            "exploitable";
        }
    } else {
        result.outcome = Outcome::Blocked;
        result.detail = "all corrupted pointers moved downward; no "
                        "self-reference possible";
    }

    if (evidence)
        *evidence = local;
    result.attackTime = ctx.elapsed();
    return result;
}

} // namespace ctamem::attack
