/**
 * @file
 * The machine's physical memory: zones + zonelist fallback + the page
 * database, layered over one simulated DRAM module.
 */

#ifndef CTAMEM_MM_PHYS_MEM_HH
#define CTAMEM_MM_PHYS_MEM_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/module.hh"
#include "mm/gfp.hh"
#include "mm/zone.hh"

namespace ctamem::mm {

/** Per-frame bookkeeping (sparse: only allocated frames have one). */
struct PageInfo
{
    PageKind kind = PageKind::Free;
    std::int32_t owner = -1; //!< owning pid, or -1 for the kernel
    unsigned order = 0;      //!< allocation order of the block head
};

/**
 * Standard x86-64 zone layout over [0, top_limit):
 * ZONE_DMA [0, 16 MiB), ZONE_DMA32 [16 MiB, 4 GiB),
 * ZONE_NORMAL [4 GiB, top_limit).  A CTA plan passes a top_limit
 * below capacity (the low water mark); the kernel appends ZONE_PTP's
 * zones above it.
 */
std::vector<ZoneSpec> standardZoneSpecs(std::uint64_t capacity,
                                        std::uint64_t top_limit);

/** Physical memory manager. */
class PhysicalMemory
{
  public:
    /**
     * @param module DRAM backing the frames
     * @param specs  zone descriptions (must not overlap)
     */
    PhysicalMemory(dram::DramModule &module,
                   std::vector<ZoneSpec> specs);

    dram::DramModule &dram() { return module_; }
    const dram::DramModule &dram() const { return module_; }

    /**
     * Allocate 2^order frames per @p flags: try the preferred zone,
     * then (unless noFallback) walk the fallback zonelist.  Newly
     * allocated frames are zero-filled, as Linux does for user and
     * page-table pages.
     */
    std::optional<Pfn> allocate(const GfpFlags &flags,
                                unsigned order = 0,
                                std::int32_t owner = -1);

    /** Free a block returned by allocate(). */
    void free(Pfn pfn);

    /** Zone containing @p pfn, or nullptr. */
    Zone *zoneOf(Pfn pfn);
    const Zone *zoneOf(Pfn pfn) const;

    /** Zone by id, or nullptr when the machine has none. */
    Zone *zone(ZoneId id);
    const Zone *zone(ZoneId id) const;

    /** Page info of the block head @p pfn (Free default if unknown). */
    PageInfo pageInfo(Pfn pfn) const;

    /** Kind recorded for the *block containing* @p pfn. */
    PageKind kindOf(Pfn pfn) const;

    /** Total frames across all zones. */
    std::uint64_t totalFrames() const;

    /** Free frames across all zones. */
    std::uint64_t freeFrames() const;

    /** Counters: allocs, fallbacks, failures, frees. */
    StatGroup &stats() { return stats_; }

  private:
    dram::DramModule &module_;
    std::vector<Zone> zones_;
    /** Head-frame -> info for live allocations. */
    std::unordered_map<Pfn, PageInfo> pages_;
    StatGroup stats_;
    StatId allocsId_;
    StatId fallbacksId_;
    StatId failuresId_;
    StatId freesId_;
};

} // namespace ctamem::mm

#endif // CTAMEM_MM_PHYS_MEM_HH
