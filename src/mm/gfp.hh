/**
 * @file
 * GFP (Get Free Pages) request flags, mirroring the Linux allocator
 * interface the paper modifies: a request names a preferred zone and
 * whether the allocator may fall back down the zonelist.
 *
 * The paper's 18-line kernel change adds __GFP_PTP: "the request must
 * be fulfilled by allocating free memory in ZONE_PTP only" — i.e.
 * preferred zone Ptp with fallback disabled.  The kernel's
 * pte_alloc_one asks PhysicalMemory with GFP_PTP; ZONE_PTP and its
 * per-level partitions are ordinary zones whose zonelist is only
 * themselves.
 */

#ifndef CTAMEM_MM_GFP_HH
#define CTAMEM_MM_GFP_HH

#include <cstdint>

namespace ctamem::mm {

/** Physical memory zones (x86-64 set plus the paper's additions). */
enum class ZoneId : std::uint8_t
{
    Dma,       //!< first 16 MiB
    Dma32,     //!< 16 MiB .. 4 GiB
    Normal,    //!< 4 GiB .. top (minus carved special zones)
    KernelRsv, //!< CTA restriction: <2 zeros in the PTP indicator
    Ptp,       //!< ZONE_PTP: true-cell rows above the low water mark
               //!< (its level-1 partition under multi-level zones)
    PtpL2,     //!< Section 7 multi-level ZONE_PTP: level-2 tables
    PtpL3,     //!< ... level-3 tables
    PtpL4,     //!< ... level-4 tables
    NumZones,
};

/** The ZONE_PTP partition serving level-@p level tables. */
constexpr ZoneId
ptpZone(unsigned level)
{
    return static_cast<ZoneId>(static_cast<unsigned>(ZoneId::Ptp) +
                               level - 1);
}

/** Human-readable zone name. */
const char *zoneName(ZoneId id);

/** An allocation request. */
struct GfpFlags
{
    ZoneId zone = ZoneId::Normal;
    bool noFallback = false;
};

/**
 * Regular allocation — kernel, user and page-cache pages alike:
 * ZONE_NORMAL with fallback.
 */
constexpr GfpFlags GFP_KERNEL{ZoneId::Normal, false};

/** DMA allocation: ZONE_DMA only. */
constexpr GfpFlags GFP_DMA{ZoneId::Dma, true};

/**
 * The paper's new flag: page-table pages from ZONE_PTP only, never
 * falling back to lower zones (Rule 1 of Section 6.1).  With
 * multi-level zones the kernel retargets `zone` to the requesting
 * level's partition, ptpZone(level).
 */
constexpr GfpFlags GFP_PTP{ZoneId::Ptp, true};

} // namespace ctamem::mm

#endif // CTAMEM_MM_GFP_HH
