/**
 * @file
 * MMU facade: TLB-accelerated translation over the page walker.
 */

#ifndef CTAMEM_PAGING_MMU_HH
#define CTAMEM_PAGING_MMU_HH

#include "common/types.hh"
#include "dram/module.hh"
#include "paging/arch.hh"
#include "paging/tlb.hh"
#include "paging/walker.hh"

namespace ctamem::paging {

/** Translates virtual accesses, caching base-granule translations. */
class Mmu
{
  public:
    /** Entries of the TLB, 8-way set-associative. */
    static constexpr std::size_t kTlbEntries = 64;

    explicit Mmu(dram::DramModule &module, const Arch &arch = kX86_64)
        : walker_(module, arch), tlb_(kTlbEntries, 8, arch.granuleShift)
    {}

    /**
     * Translate @p vaddr in the space rooted at @p root.  TLB hits
     * skip the walk but still enforce the cached writable/user bits.
     */
    WalkResult
    translate(Pfn root, VAddr vaddr, AccessType access,
              Privilege privilege)
    {
        const Arch &arch = walker_.arch();
        if (const TlbEntry *hit = tlb_.lookup(root, vaddr)) {
            WalkResult result;
            result.writable = hit->writable;
            result.user = hit->user;
            if ((privilege == Privilege::User && !hit->user) ||
                (access == AccessType::Write && !hit->writable)) {
                result.fault = Fault::Protection;
                return result;
            }
            result.phys = hit->physBase | (vaddr & arch.granuleMask());
            return result;
        }
        WalkResult result = walker_.walk(root, vaddr, access,
                                         privilege);
        if (result.ok() && result.leafLevel == 1) {
            tlb_.insert(TlbEntry{root, vaddr >> arch.granuleShift,
                                 result.phys & ~arch.granuleMask(),
                                 result.writable, result.user});
        }
        return result;
    }

    const Arch &arch() const { return walker_.arch(); }
    PageWalker &walker() { return walker_; }
    Tlb &tlb() { return tlb_; }

  private:
    PageWalker walker_;
    Tlb tlb_;
};

} // namespace ctamem::paging

#endif // CTAMEM_PAGING_MMU_HH
