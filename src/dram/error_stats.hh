/**
 * @file
 * Measured RowHammer bit-flip statistics (Kim et al. ISCA'14, as used
 * in Section 5 of the paper) plus the derived per-direction flip
 * probabilities for each cell type.
 */

#ifndef CTAMEM_DRAM_ERROR_STATS_HH
#define CTAMEM_DRAM_ERROR_STATS_HH

#include "dram/cell_types.hh"

namespace ctamem::dram {

/**
 * RowHammer error statistics for a DRAM module.
 *
 * pf is the probability that a given cell is vulnerable (flippable)
 * under a double-sided hammer.  Among vulnerable *true*-cells, p01True
 * flip '0'->'1' (rare circuit effects such as voltage coupling) and
 * the rest, p10True(), flip '1'->'0' (the leak direction).  Anti-cells
 * mirror the directions.
 */
struct ErrorStats
{
    /** Probability a cell is vulnerable to RowHammer at all. */
    double pf = 1e-4;

    /** P('0'->'1' | vulnerable true-cell). Paper: 0.2%. */
    double p01True = 0.002;

    /** P('1'->'0' | vulnerable true-cell). Paper: 99.8%. */
    double p10True() const { return 1.0 - p01True; }

    /**
     * Probability a random bit in cells of @p type can flip 0->1.
     * Anti-cells leak toward '1', so their up-flip direction is the
     * common one.
     */
    double
    upFlipProb(CellType type) const
    {
        return type == CellType::True ? pf * p01True : pf * p10True();
    }

    /** Probability a random bit in cells of @p type can flip 1->0. */
    double
    downFlipProb(CellType type) const
    {
        return type == CellType::True ? pf * p10True() : pf * p01True;
    }

    /** The paper's pessimistic technology-scaling scenario (Table 3). */
    static ErrorStats
    pessimistic()
    {
        return ErrorStats{5e-4, 0.005};
    }
};

} // namespace ctamem::dram

#endif // CTAMEM_DRAM_ERROR_STATS_HH
