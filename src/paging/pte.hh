/**
 * @file
 * The software view of page permissions.  How an ISA encodes them in
 * a descriptor — for x86-64 the Intel SDM 4-level layout: PFN field
 * in bits 12..51 (the "monotonic pointer" CTA protects), PS in bit 7,
 * U/S and R/W in bits 2 and 1 — lives in paging::Arch (arch.hh).
 */

#ifndef CTAMEM_PAGING_PTE_HH
#define CTAMEM_PAGING_PTE_HH

namespace ctamem::paging {

/** Software view of page permissions. */
struct PageFlags
{
    bool writable = false;
    bool user = false;
    bool noExecute = false;
};

} // namespace ctamem::paging

#endif // CTAMEM_PAGING_PTE_HH
