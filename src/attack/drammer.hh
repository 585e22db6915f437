/**
 * @file
 * Deterministic RowHammer attack in the style of Drammer (van der
 * Veen et al., CCS'16 — reference [37] of the paper).
 *
 * Phase 1, *memory templating*: the attacker fills a page-granular
 * arena with known patterns, double-side-hammers its own rows, and
 * records every reproducible flip (location + direction).  Flips are
 * a fixed physical property of the module, so a template found once
 * fires every time.
 *
 * Phase 2, *placement massaging* (Phys Feng Shui): using the buddy
 * allocator's deterministic lowest-address-first behaviour, the
 * attacker frees exactly the right frames and triggers kernel
 * allocations so that (a) a leaf page table lands on a templated
 * frame B and (b) the PTE in the templated slot points to a data
 * frame P where the templated flip turns P into B — a *deterministic*
 * PTE self-reference.
 *
 * Phase 3: re-hammer, detect, escalate.
 *
 * Against CTA the placement step is structurally impossible: page
 * tables only ever come from ZONE_PTP, which the attacker can neither
 * template (Property 1 of the low water mark) nor steer allocations
 * into.
 */

#ifndef CTAMEM_ATTACK_DRAMMER_HH
#define CTAMEM_ATTACK_DRAMMER_HH

#include <cstdint>
#include <vector>

#include "attack/primitives.hh"
#include "attack/result.hh"
#include "kernel/kernel.hh"

namespace ctamem::attack {

/** One reproducible flip found by templating. */
struct FlipTemplate
{
    VAddr vaddr;          //!< arena page the flip was observed in
    Pfn frame;            //!< physical frame at templating time
    std::uint64_t slot;   //!< 8-byte slot within the page (PTE slot)
    unsigned bit;         //!< bit within the 64-bit slot
    bool downward;        //!< true: '1'->'0'; false: '0'->'1'
};

/** Phase-1 result, exposed for tests and benches. */
struct TemplateReport
{
    std::vector<FlipTemplate> templates;
    std::uint64_t hammeredRows = 0;
    SimTime elapsed = 0; //!< modeled time of the templating passes
};

/**
 * Run only the templating phase from a fresh process over a
 * 1024-page arena.  The arena stays mapped in @p out_pid's address
 * space.
 */
TemplateReport templateMemory(kernel::Kernel &kernel,
                              dram::RowHammerEngine &engine,
                              int *out_pid = nullptr);

/**
 * Run the full deterministic attack: template the arena, then try up
 * to 32 usable templates.
 */
AttackResult runDrammer(kernel::Kernel &kernel,
                        dram::RowHammerEngine &engine);

} // namespace ctamem::attack

#endif // CTAMEM_ATTACK_DRAMMER_HH
