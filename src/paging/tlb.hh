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
 * Entries are keyed by (root, vpn): the root is the
 * architecture-neutral address-space identifier (the root table
 * frame).  Each MMU owns its TLB and translates for one paging
 * architecture, so entries of different architectures never meet.
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

    /** Look up (root, vaddr); nullptr on miss. */
    const TlbEntry *lookup(Pfn root, VAddr vaddr);

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

    /** Set index: low VPN bits, offset per address space. */
    std::size_t
    setIndex(Pfn root, VAddr vpn) const
    {
        const std::uint64_t split = root * 0x9e3779b97f4a7c15ULL;
        return static_cast<std::size_t>((vpn ^ (split >> 40)) &
                                        (sets_ - 1));
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
