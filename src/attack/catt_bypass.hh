/**
 * @file
 * The two published bypasses of CATT-style kernel/user physical
 * isolation (Section 2.5 of the paper), as executable attacks:
 *
 *  1. Row re-mapping: a manufacturer-remapped user row is *device*-
 *     adjacent to kernel rows even though it is address-space-distant,
 *     so hammering it disturbs kernel page tables.
 *  2. Double-owned pages: device buffers (video memory and friends)
 *     are allocated in the kernel partition yet mapped user-writable,
 *     giving the attacker aggressor rows inside the kernel half.
 *
 * Both defeat CATT; neither defeats CTA (re-mapping preserves cell
 * type, and nothing user-accessible exists above the low water mark).
 */

#ifndef CTAMEM_ATTACK_CATT_BYPASS_HH
#define CTAMEM_ATTACK_CATT_BYPASS_HH

#include "attack/primitives.hh"
#include "attack/result.hh"
#include "kernel/kernel.hh"

namespace ctamem::attack {

/**
 * Re-mapping bypass.  After a 256-mapping page-table spray, up to
 * four device rows adjacent to the kernel's page-table rows are
 * (pre-attack, by the "manufacturer") swapped with rows the attacker
 * owns.
 */
AttackResult runRemapBypass(kernel::Kernel &kernel,
                            dram::RowHammerEngine &engine);

/**
 * Double-owned (device-buffer) bypass: @p mappings page-table sprays
 * interleaved 1:1 with single-page device buffers.
 */
AttackResult runDoubleOwnedBypass(kernel::Kernel &kernel,
                                  dram::RowHammerEngine &engine,
                                  unsigned mappings = 256);

} // namespace ctamem::attack

#endif // CTAMEM_ATTACK_CATT_BYPASS_HH
