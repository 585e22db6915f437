/**
 * @file
 * PTP-indicator arithmetic.
 *
 * The PTP indicator of a physical address is the set of n top address
 * bits that must all be '1' for the address to lie in ZONE_PTP, where
 * n = log2(memory size / ZONE_PTP size).  The security analysis of
 * Section 5 is entirely a statement about how many indicator bits an
 * attacker must flip upward.  The allocator restriction
 * (ZONE_KERNEL_RSV in buildCtaPlan) reads indicator values through
 * this class; the analytic model computes the same width itself, as
 * model::SystemParams::indicatorBits().
 */

#ifndef CTAMEM_CTA_INDICATOR_HH
#define CTAMEM_CTA_INDICATOR_HH

#include <cstdint>

#include "common/bitops.hh"
#include "common/types.hh"

namespace ctamem::cta {

/** The n-bit PTP indicator of a machine configuration. */
class PtpIndicator
{
  public:
    /**
     * @param mem_bytes physical memory size (power of two)
     * @param ptp_bytes ZONE_PTP size (power of two dividing mem_bytes)
     */
    PtpIndicator(std::uint64_t mem_bytes, std::uint64_t ptp_bytes);

    /** Number of indicator bits n. */
    unsigned bits() const { return bits_; }

    /** Lowest address bit position belonging to the indicator. */
    unsigned shift() const { return shift_; }

    /** Indicator field value of @p addr. */
    std::uint64_t
    value(Addr addr) const
    {
        return ctamem::bits(addr, shift_ + bits_ - 1, shift_);
    }

    /** Number of '0' bits in the indicator of @p addr. */
    unsigned
    zeros(Addr addr) const
    {
        return bits_ - popcount(value(addr));
    }

    /** True iff the indicator of @p addr is all-ones (ZONE_PTP). */
    bool
    allOnes(Addr addr) const
    {
        return value(addr) == (bits_ >= 64 ? ~0ULL :
                               (1ULL << bits_) - 1);
    }

    /**
     * The "ideal" low water mark: the base of the top region whose
     * indicator is all-ones.
     */
    Addr
    regionBase() const
    {
        return ((1ULL << bits_) - 1) << shift_;
    }

    /** Bytes per indicator-distinguished region. */
    std::uint64_t
    regionBytes() const
    {
        return 1ULL << shift_;
    }

  private:
    unsigned bits_;
    unsigned shift_;
};

} // namespace ctamem::cta

#endif // CTAMEM_CTA_INDICATOR_HH
