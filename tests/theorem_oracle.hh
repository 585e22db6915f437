/**
 * @file
 * Bit-level oracles for the paper's No Self-Reference Theorem and the
 * monotonicity property (Section 4): which values a word can reach
 * through one-directional flips, and that a down-flipped pointer can
 * only move toward address zero.  The property tests check pointers,
 * hypervisor mappings and sandbox encodings against them.  Test-only
 * code.
 */

#ifndef CTAMEM_TESTS_THEOREM_ORACLE_HH
#define CTAMEM_TESTS_THEOREM_ORACLE_HH

#include <cstdint>

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

} // namespace ctamem::cta

#endif // CTAMEM_TESTS_THEOREM_ORACLE_HH
