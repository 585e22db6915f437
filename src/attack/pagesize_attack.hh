/**
 * @file
 * The Section 7 multi-page-size attack.
 *
 * With 2 MiB pages enabled, a PD entry with PS=1 maps *user data*.
 * In true-cells the PS bit's dominant flip direction is '1'->'0' —
 * which turns the entry into a pointer to a "page table" whose
 * contents are the attacker's own data, written in advance as crafted
 * PTEs aimed at ZONE_PTP (whose location at the top of memory is
 * architectural knowledge).  One flip hands the attacker a
 * user-writable window onto real page tables: single-level CTA does
 * not stop this, which is exactly why the paper prescribes
 * multi-level PTP zones plus PS-bit screening of candidate high-level
 * table frames.
 */

#ifndef CTAMEM_ATTACK_PAGESIZE_ATTACK_HH
#define CTAMEM_ATTACK_PAGESIZE_ATTACK_HH

#include "attack/primitives.hh"
#include "attack/result.hh"
#include "kernel/kernel.hh"

namespace ctamem::attack {

/**
 * Run the PS-bit attack against a CTA kernel: a 64-mapping leaf-table
 * spray, 128 crafted large pages, then a row-by-row ZONE_PTP sweep.
 *
 * @p sweep_from_top picks the sweep direction.  The attacker knows
 * the kernel's allocation order (an open-source OS, as the paper's
 * threat model grants Drammer), so it sweeps the zone in the order
 * that postpones the rows holding its own root tables: top-down for
 * single-level CTA (roots allocate bottom-up), bottom-up for
 * multi-level zones (roots live in the topmost partitions).
 *
 * @throws FatalError when @p kernel has no ZONE_PTP.
 */
AttackResult runPageSizeAttack(kernel::Kernel &kernel,
                               dram::RowHammerEngine &engine,
                               bool sweep_from_top = true);

} // namespace ctamem::attack

#endif // CTAMEM_ATTACK_PAGESIZE_ATTACK_HH
