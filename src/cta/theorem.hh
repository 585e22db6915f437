/**
 * @file
 * Executable form of the paper's No Self-Reference Theorem and the
 * monotonicity property (Section 4).
 *
 * Theorem: if every page-table page lives above a low water mark P,
 * every pointer held in a page table points below P, and all pointer
 * bits are stored in true-cells, then no RowHammer-corrupted pointer
 * gamma(p) can reach a page-table entry: gamma(p) <= p < P <= e.
 *
 * The checkers here are used three ways: as test oracles, as runtime
 * invariant assertions in the kernel, and as the victory condition
 * auditors for the attack harness.
 */

#ifndef CTAMEM_CTA_THEOREM_HH
#define CTAMEM_CTA_THEOREM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace ctamem::cta {

/**
 * True iff @p after is reachable from @p before using only '1'->'0'
 * flips — the only transitions a true-cell word admits.  Equivalent
 * to: @p after has no bit set that @p before lacks.
 */
constexpr bool
reachableByDownFlips(std::uint64_t before, std::uint64_t after)
{
    return (after & ~before) == 0;
}

/**
 * True iff @p after is reachable from @p before using only '0'->'1'
 * flips (anti-cell words).
 */
constexpr bool
reachableByUpFlips(std::uint64_t before, std::uint64_t after)
{
    return (before & ~after) == 0;
}

/**
 * The monotonicity property: any down-flip-reachable value is
 * numerically <= the original (the corrupted monotonic pointer can
 * only move toward address zero).
 */
constexpr bool
monotonicityHolds(std::uint64_t before, std::uint64_t after)
{
    return !reachableByDownFlips(before, after) || after <= before;
}

/** Result of auditing a system against the theorem's premises. */
struct TheoremAudit
{
    bool tablesAboveLwm = true;   //!< every PT frame above P
    bool pointersBelowLwm = true; //!< every PTE target below P
    bool tablesInTrueCells = true;//!< every PT frame in true-cells
    std::vector<std::string> violations;

    bool
    holds() const
    {
        return tablesAboveLwm && pointersBelowLwm && tablesInTrueCells;
    }
};

} // namespace ctamem::cta

#endif // CTAMEM_CTA_THEOREM_HH
