/**
 * @file
 * The premises of the paper's No Self-Reference Theorem (Section 4),
 * as a kernel audit reports them.
 *
 * Theorem: if every page-table page lives above a low water mark P,
 * every pointer held in a page table points below P, and all pointer
 * bits are stored in true-cells, then no RowHammer-corrupted pointer
 * gamma(p) can reach a page-table entry: gamma(p) <= p < P <= e.
 *
 * Kernel::auditTheorem() checks a running system against the three
 * premises and reports the result as a TheoremAudit.  The bit-level
 * monotonicity oracles the property tests use live in
 * tests/theorem_oracle.hh.
 */

#ifndef CTAMEM_CTA_THEOREM_HH
#define CTAMEM_CTA_THEOREM_HH

#include <string>
#include <vector>

namespace ctamem::cta {

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
