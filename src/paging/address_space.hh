/**
 * @file
 * Kernel-side construction of a process's page-table hierarchy.
 *
 * All table pages are allocated through a caller-supplied allocation
 * hook — the simulated `pte_alloc_one`.  This indirection is the
 * whole point of the reproduction: the CTA policy changes *only*
 * what that hook returns (frames from ZONE_PTP true-cells), nothing
 * else in the paging machinery.
 */

#ifndef CTAMEM_PAGING_ADDRESS_SPACE_HH
#define CTAMEM_PAGING_ADDRESS_SPACE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "dram/module.hh"
#include "paging/arch.hh"
#include "paging/pte.hh"
#include "paging/walker.hh"

namespace ctamem::paging {

/**
 * Allocates one zeroed page-table page; returns its PFN, or nullopt
 * when the backing zone is exhausted.  @p level is the paging level
 * the new table will serve (3 = PDPT .. 1 = PT), so multi-level CTA
 * zoning (Section 7) can place different levels in different zones.
 */
using PteAllocFn = std::function<std::optional<Pfn>(unsigned level)>;

/** Frees a page-table page previously returned by the alloc hook. */
using PteFreeFn = std::function<void(Pfn pfn)>;

/** Bookkeeping for one allocated table page. */
struct TableRecord
{
    Pfn pfn;
    unsigned level;        //!< 1 = leaf table .. levels-1
    Addr parentEntryAddr;  //!< physical address of the owning entry
};

/** One process's radix page-table hierarchy. */
class AddressSpace
{
  public:
    /**
     * @param module    DRAM holding the tables
     * @param alloc     the pte_alloc_one hook
     * @param free_fn   the matching release hook
     * @param root      root table frame (already allocated, zeroed)
     * @param arch      paging architecture the tables follow
     */
    AddressSpace(dram::DramModule &module, PteAllocFn alloc,
                 PteFreeFn free_fn, Pfn root,
                 const Arch &arch = kX86_64);

    Pfn root() const { return root_; }

    /** The descriptor this space encodes entries with. */
    const Arch &arch() const { return arch_; }

    /**
     * Map the base-granule page at @p vaddr to @p pfn.  Intermediate
     * tables are created on demand via the alloc hook.
     * @return false when a table allocation failed (out of zone).
     */
    bool map(VAddr vaddr, Pfn pfn, const PageFlags &flags);

    /**
     * Map a large (block) page at @p level — on x86-64, level 2 =
     * 2 MiB, level 3 = 1 GiB — by writing a block descriptor at the
     * corresponding level.
     */
    bool mapLarge(VAddr vaddr, Pfn pfn, const PageFlags &flags,
                  unsigned level);

    /** Remove the mapping at @p vaddr. @return true if one existed. */
    bool unmap(VAddr vaddr);

    /** Total table pages including the root. */
    std::uint64_t
    tablePageCount() const
    {
        return tables_.size() + 1;
    }

    /**
     * Reclaim the oldest leaf (level-1) table page: zero its parent
     * entry so the region demand-faults back later, remove it from
     * the bookkeeping, and return its record.  The caller releases
     * the frame.  Returns nullopt when no leaf table exists.
     *
     * This is the pte-reclaim path the paper's Section 6.3 alludes
     * to when ZONE_PTP runs short: mapped data frames stay resident,
     * only the translation structure is rebuilt on the next fault.
     */
    std::optional<TableRecord> evictLeafTable();

    /** Release every table page (not the mapped data pages). */
    void releaseTables();

  private:
    /**
     * Descend to the level-@p target table for @p vaddr, creating
     * missing intermediate tables.  Returns the table's PFN.
     */
    std::optional<Pfn> ensureTable(VAddr vaddr, unsigned target);

    dram::DramModule &module_;
    PteAllocFn alloc_;
    PteFreeFn free_;
    Pfn root_;
    const Arch &arch_;
    std::vector<TableRecord> tables_;
};

} // namespace ctamem::paging

#endif // CTAMEM_PAGING_ADDRESS_SPACE_HH
