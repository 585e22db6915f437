/**
 * @file
 * The machine's physical memory: zones + zonelist fallback + the
 * order of every live block, layered over one simulated DRAM module.
 */

#ifndef CTAMEM_MM_PHYS_MEM_HH
#define CTAMEM_MM_PHYS_MEM_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/module.hh"
#include "mm/gfp.hh"
#include "mm/zone.hh"

namespace ctamem::mm {

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
                                unsigned order = 0);

    /**
     * Free a block returned by allocate().  Panics unless @p pfn
     * heads a live block: a frame never allocated, an interior frame
     * of a block and a double free are all bugs.
     */
    void free(Pfn pfn);

    /**
     * Order of the live block @p pfn heads; nullopt for a free frame
     * and for an interior frame of a block.
     */
    std::optional<unsigned> blockOrder(Pfn pfn) const;

    /** Zone containing @p pfn, or nullptr. */
    Zone *zoneOf(Pfn pfn);
    const Zone *zoneOf(Pfn pfn) const;

    /** Zone by id, or nullptr when the machine has none. */
    Zone *zone(ZoneId id);
    const Zone *zone(ZoneId id) const;

    /** Total frames across all zones. */
    std::uint64_t totalFrames() const;

    /** Free frames across all zones. */
    std::uint64_t freeFrames() const;

    /** Counters: allocs, fallbacks, failures, frees. */
    StatGroup &stats() { return stats_; }

  private:
    dram::DramModule &module_;
    std::vector<Zone> zones_;
    /**
     * Per frame: 1 + the order of the live block it heads, 0 when it
     * heads none — the order Linux keeps in a head's struct page.
     */
    std::vector<std::uint8_t> headOrders_;
    StatGroup stats_;
    StatId allocsId_;
    StatId fallbacksId_;
    StatId failuresId_;
    StatId freesId_;
};

} // namespace ctamem::mm

#endif // CTAMEM_MM_PHYS_MEM_HH
