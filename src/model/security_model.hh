/**
 * @file
 * The closed-form security model of Section 5.
 *
 * P_exploitable = sum_{i=minFlips}^{n} C(n,i) (Pf*P01)^i
 *                                            (1 - Pf*P10)^(n-i)
 *
 * where n is the number of PTP-indicator bits, minFlips is 1 without
 * the restriction or the enforced minimum number of '0's with it, and
 * the flip probabilities take the zone's cell type into account (the
 * anti-cell ablation swaps the dominant direction).  The expected
 * number of exploitable PTE locations multiplies by the PTE capacity
 * of ZONE_PTP; the attack-time model prices the Algorithm 1 loop with
 * the paper's measured per-step costs, declared here once.
 */

#ifndef CTAMEM_MODEL_SECURITY_MODEL_HH
#define CTAMEM_MODEL_SECURITY_MODEL_HH

#include <cstdint>

#include "common/types.hh"
#include "dram/cell_types.hh"
#include "dram/error_stats.hh"

namespace ctamem::model {

/** System parameters of one modeled configuration. */
struct SystemParams
{
    std::uint64_t memBytes = 8 * GiB;
    std::uint64_t ptpBytes = 32 * MiB;
    /** Enforced minimum zeros in the attacker's PTP indicator
     *  (0 = no restriction). */
    unsigned minIndicatorZeros = 0;
    /** Cell type backing ZONE_PTP (Anti = the LWM-only ablation). */
    dram::CellType zoneCells = dram::CellType::True;
    dram::ErrorStats errors;
    std::uint64_t rowBytes = 128 * KiB;

    /**
     * Translation granule of the modeled architecture: the size of
     * one Algorithm 1 fill-and-check target page, and the unit the
     * PTE pointer field addresses (4 KiB on x86-64; 4/16/64 KiB on
     * AArch64).  Larger granules mean fewer candidate pages below
     * the low water mark and fewer pointer bits per descriptor,
     * shortening the brute-force sweep proportionally.
     */
    std::uint64_t granuleBytes = 4 * KiB;

    /** Indicator width n = log2(mem / ptp). */
    unsigned indicatorBits() const;

    /**
     * Width of the descriptor's pointer field for this granule:
     * the bits addressing granule frames, log2(mem / granule).
     * The indicator is its top indicatorBits() bits.
     */
    unsigned pointerBits() const;

    /** PTEs that fit in ZONE_PTP (8 bytes each). */
    std::uint64_t pteCount() const { return ptpBytes / 8; }

    /** Physical pages below the low water mark. */
    std::uint64_t
    pagesBelowLwm() const
    {
        return memBytes / granuleBytes - ptpBytes / granuleBytes;
    }

    /** DRAM rows making up ZONE_PTP. */
    std::uint64_t ptpRows() const { return ptpBytes / rowBytes; }

    /** PTEs per DRAM row. */
    std::uint64_t ptesPerRow() const { return rowBytes / 8; }
};

/**
 * @name Algorithm 1 step costs (Section 5 measurements)
 * expectedAttackTime() prices the full-scale attack with them, and
 * every executable attack charges them to its simulated clock.
 */
/** @{ */
constexpr SimTime kSprayFillCost = 184 * milliseconds; //!< step (1)
constexpr SimTime kHammerRowCost = 64 * milliseconds;  //!< step (2),
                                                       //!< one refresh
constexpr SimTime kCheckPteCost = 600; //!< step (3), one memcmp (ns)
/** @} */

/** Probability one PTE location becomes exploitable. */
double pExploitable(const SystemParams &params);

/**
 * Probability a PTE whose indicator carries *exactly* @p zeros zero
 * bits is exploitable: every zero must flip up and every one must
 * hold.  pUp^zeros * (1 - pDown)^(n - zeros), evaluated in log space
 * — the single-content term Sampler::FixedZerosBatched estimates.
 * @pre zeros <= indicatorBits().
 */
double pExploitableExactZeros(const SystemParams &params,
                              unsigned zeros);

/**
 * Probability a *uniform* pointer below the low water mark (indicator
 * uniform over [0, 2^n - 1)) is exploitable:
 * [(pUp + 1 - pDown)^n - (1 - pDown)^n] / (2^n - 1) — what
 * Sampler::UniformBatched estimates.
 */
double pExploitableUniform(const SystemParams &params);

/** Expected number of exploitable PTE locations in ZONE_PTP. */
double expectedExploitablePtes(const SystemParams &params);

/**
 * Fraction of systems in which the restricted configuration has at
 * least one exploitable PTE (the paper's "one out of 2.04e5").
 */
double vulnerableSystemFraction(const SystemParams &params);

/** Attack-time results in days. */
struct AttackTime
{
    double perPageSeconds; //!< fill + hammer-all-rows + check-all-PTEs
    double worstDays;      //!< full brute force over pages below LWM
    double avgDays;        //!< paper's expected-time rule
};

/**
 * Expected Algorithm 1 duration.  Average rule follows Section 5:
 * worst / (ceil(E)+1) when exploitable PTEs are plentiful, worst / 2
 * for the restricted case (conditioned on the rare vulnerable
 * system having exactly one exploitable location).
 */
AttackTime expectedAttackTime(const SystemParams &params);

} // namespace ctamem::model

#endif // CTAMEM_MODEL_SECURITY_MODEL_HH
