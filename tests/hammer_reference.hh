/**
 * @file
 * Scalar reference implementation of the RowHammer disturbance pass —
 * the pre-mask cell-at-a-time algorithm, kept verbatim so the
 * equivalence property tests can check the bit-parallel engine
 * (dram/hammer.hh) cell-for-cell against it.  Test-only code.
 */

#ifndef CTAMEM_TESTS_HAMMER_REFERENCE_HH
#define CTAMEM_TESTS_HAMMER_REFERENCE_HH

#include <cstdint>

#include "dram/hammer.hh"
#include "dram/module.hh"

namespace ctamem::dram {

/** A cached vulnerable cell within one device row. */
struct VulnerableBit
{
    std::uint64_t column; //!< byte offset within the row
    unsigned bit;
    double threshold;     //!< minimum intensity that trips it
};

namespace reference {

HammerResult hammerRowScalar(DramModule &module, std::uint64_t bank,
                             std::uint64_t row);
HammerResult hammerDoubleSidedScalar(DramModule &module,
                                     std::uint64_t bank,
                                     std::uint64_t victim_row);

} // namespace reference

} // namespace ctamem::dram

#endif // CTAMEM_TESTS_HAMMER_REFERENCE_HH
