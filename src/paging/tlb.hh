/**
 * @file
 * A small software TLB model.
 *
 * RowHammer PTE attacks flush the TLB between hammer passes so the
 * MMU re-reads the (possibly corrupted) PTE from DRAM; the model
 * exists so that caching behaviour — and the attacker's need to
 * defeat it — is represented, and so the performance harness can
 * report hit rates.
 *
 * The organisation is N-way set-associative over contiguous storage:
 * lookup scans one set of at most `ways()` slots and replacement uses
 * per-set LRU stamp counters, so neither hits nor fills allocate.
 * Capacities of at most one way collapse to a single fully
 * associative LRU set — exactly the old list-based model, which is
 * what the small TLBs in the tests exercise.
 *
 * Entries are keyed by (archTag, root, vpn): the root is the
 * architecture-neutral address-space identifier (the root table
 * frame), and the tag keeps translations minted under different
 * paging architectures from ever aliasing, even if two arches hand
 * out the same root frame number.
 */

#ifndef CTAMEM_PAGING_TLB_HH
#define CTAMEM_PAGING_TLB_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "paging/walker.hh"

namespace ctamem::paging {

/** One cached translation. */
struct TlbEntry
{
    Pfn root;       //!< address-space identifier (root table frame)
    VAddr vpn;      //!< virtual page number (granule units)
    Addr physBase;  //!< physical base of the translation granule
    bool writable;
    bool user;
    /** Arch::tag() of the minting architecture (0 = x86-64). */
    std::uint64_t archTag = 0;
};

/** Set-associative LRU TLB. */
class Tlb
{
  public:
    /**
     * @param capacity   total number of entries
     * @param ways       target associativity; the set count is the
     *                   largest power of two with sets*ways <=
     *                   capacity (one fully associative set of
     *                   @p capacity entries when capacity <= ways)
     * @param page_shift log2 of the translation granule the vpn is
     *                   expressed in (the arch's granuleShift)
     */
    explicit Tlb(std::size_t capacity = 64, std::size_t ways = 8,
                 unsigned page_shift = pageShift);

    /** Look up (tag, root, vaddr); nullptr on miss. */
    const TlbEntry *lookup(Pfn root, VAddr vaddr,
                           std::uint64_t arch_tag = 0);

    /** Insert a translation (evicting the set's LRU when full). */
    void insert(const TlbEntry &entry);

    /** Drop everything (the attack's clflush/reload step). */
    void flushAll();

    /** Drop one page's translation across all address spaces. */
    void flushPage(VAddr vaddr);

    std::size_t size() const { return live_; }
    std::size_t ways() const { return ways_; }
    std::size_t sets() const { return sets_; }
    std::size_t capacity() const { return sets_ * ways_; }

    /** Counters: hits, misses, evictions, flushes. */
    StatGroup &stats() { return stats_; }

  private:
    struct Slot
    {
        TlbEntry entry{};
        std::uint64_t stamp = 0; //!< set-clock value at last use
        bool valid = false;
    };

    static std::uint64_t
    splitKey(Pfn root, std::uint64_t arch_tag)
    {
        // arch_tag is 0 for the historical x86-64 descriptor, so its
        // set-index function is bit-identical to the tag-free one.
        return (root ^ arch_tag) * 0x9e3779b97f4a7c15ULL;
    }

    /** Set index: low VPN bits, offset per (arch, address space). */
    std::size_t
    setIndex(Pfn root, VAddr vpn, std::uint64_t arch_tag) const
    {
        return static_cast<std::size_t>(
            (vpn ^ (splitKey(root, arch_tag) >> 40)) & (sets_ - 1));
    }

    std::size_t ways_;
    std::size_t sets_; //!< always a power of two
    unsigned pageShift_;
    std::size_t live_ = 0;
    std::vector<Slot> slots_;            //!< sets_ * ways_, set-major
    std::vector<std::uint64_t> clocks_;  //!< per-set LRU stamp source
    StatGroup stats_;
    StatId hitsId_;
    StatId missesId_;
    StatId evictionsId_;
    StatId flushesId_;
};

} // namespace ctamem::paging

#endif // CTAMEM_PAGING_TLB_HH
