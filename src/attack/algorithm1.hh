/**
 * @file
 * The paper's Algorithm 1: the strongest probabilistic attack against
 * a CTA-protected system.
 *
 * The attacker fills ZONE_PTP with page tables whose PTEs all point
 * at one physical page, hammers every ZONE_PTP row (activating a row
 * means translating through PTEs stored in it, TLB flushed between
 * accesses), and checks all PTEs for the self-reference property.
 * With monotonic pointers in true-cells this fails; the run reports
 * the empirical evidence (corrupted PTEs all moved downward) and the
 * modeled attack time for the full brute-force loop.
 */

#ifndef CTAMEM_ATTACK_ALGORITHM1_HH
#define CTAMEM_ATTACK_ALGORITHM1_HH

#include "attack/primitives.hh"
#include "attack/result.hh"
#include "kernel/kernel.hh"

namespace ctamem::attack {

/** Extra evidence collected by the run. */
struct Algorithm1Evidence
{
    std::uint64_t ptesBefore = 0;     //!< present leaf PTEs snapshot
    std::uint64_t ptesCorrupted = 0;  //!< pointer changed by hammering
    std::uint64_t pointersMovedDown = 0;
    std::uint64_t pointersMovedUp = 0; //!< would-be violations
    std::uint64_t selfReferences = 0;
};

/**
 * Run Algorithm 1 against a CTA-booted kernel, spraying up to 8192
 * mappings (ZONE_PTP usually fills first).
 * @throws FatalError when @p kernel has no ZONE_PTP.
 */
AttackResult runAlgorithm1(kernel::Kernel &kernel,
                           dram::RowHammerEngine &engine,
                           Algorithm1Evidence *evidence = nullptr);

} // namespace ctamem::attack

#endif // CTAMEM_ATTACK_ALGORITHM1_HH
