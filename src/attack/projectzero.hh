/**
 * @file
 * The probabilistic PTE-spray privilege-escalation attack (Seaborn &
 * Dullien, ProjectZero 2015 — reference [32] of the paper).
 *
 * The attacker maps one file a great many times (each mapping forces
 * the kernel to allocate a fresh leaf page table), interleaving its
 * own anonymous pages so the buddy allocator lays attacker rows and
 * page-table rows side by side.  It then double-side-hammers the
 * sandwiched rows, flushes the TLB, and scans its mappings for a PTE
 * whose frame pointer was flipped into a page-table page — the PTE
 * self-reference that hands it the machine.
 */

#ifndef CTAMEM_ATTACK_PROJECTZERO_HH
#define CTAMEM_ATTACK_PROJECTZERO_HH

#include "attack/primitives.hh"
#include "attack/result.hh"
#include "kernel/kernel.hh"

namespace ctamem::attack {

/**
 * Run the attack against @p kernel from a fresh unprivileged process:
 * 512 mappings of 64 KiB with two aggressor pages each, then up to
 * eight hammer/check rounds.  Deterministic given the kernel's DRAM
 * seed.
 */
AttackResult runProjectZero(kernel::Kernel &kernel,
                            dram::RowHammerEngine &engine);

} // namespace ctamem::attack

#endif // CTAMEM_ATTACK_PROJECTZERO_HH
