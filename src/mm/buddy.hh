/**
 * @file
 * A classic binary buddy allocator over one contiguous page-frame
 * range, in the Linux style: per-order free lists, split on
 * allocation, coalesce with the buddy on free.
 *
 * Determinism note: free blocks are kept in ordered sets and the
 * allocator always hands out the lowest-addressed block of the
 * smallest sufficient order.  Deterministic placement is what lets
 * the Drammer-style attack (and its defeat by CTA) be reproduced
 * exactly.
 */

#ifndef CTAMEM_MM_BUDDY_HH
#define CTAMEM_MM_BUDDY_HH

#include <array>
#include <cstdint>
#include <optional>
#include <set>

#include "common/types.hh"

namespace ctamem::mm {

/** Binary buddy allocator over frames [basePfn, basePfn + frames). */
class BuddyAllocator
{
  public:
    /** Largest block: 2^maxOrder pages (Linux default: order 10). */
    static constexpr unsigned maxOrder = 10;

    /**
     * @param base_pfn first frame managed
     * @param frames   number of frames managed (any value; the range
     *                 is tiled greedily with naturally aligned blocks)
     */
    BuddyAllocator(Pfn base_pfn, std::uint64_t frames);

    /** Allocate a naturally aligned block of 2^order frames. */
    std::optional<Pfn> allocate(unsigned order);

    /** Return a block obtained from allocate(). */
    void free(Pfn pfn, unsigned order);

    /** Frames currently free. */
    std::uint64_t freeFrames() const { return freeFrames_; }

    /** Frames managed in total. */
    std::uint64_t totalFrames() const { return frames_; }

    Pfn basePfn() const { return basePfn_; }

    /** True iff @p pfn lies in the managed range. */
    bool
    contains(Pfn pfn) const
    {
        return pfn >= basePfn_ && pfn < basePfn_ + frames_;
    }

    /**
     * True iff a block of 2^order frames starting at @p pfn is
     * currently free (either directly on a free list or contained in
     * a larger free block).
     */
    bool isFree(Pfn pfn, unsigned order) const;

  private:
    void insertFree(Pfn pfn, unsigned order);

    Pfn basePfn_;
    std::uint64_t frames_;
    std::uint64_t freeFrames_ = 0;
    std::array<std::set<Pfn>, maxOrder + 1> freeLists_;
};

} // namespace ctamem::mm

#endif // CTAMEM_MM_BUDDY_HH
