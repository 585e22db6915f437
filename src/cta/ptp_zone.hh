/**
 * @file
 * ZONE_PTP: the true-cell page-table zone above the low water mark.
 *
 * The builder walks DRAM rows downward from the top of physical
 * memory, collecting true-cell rows into sub-zones and skipping
 * anti-cell stripes (Figure 8 of the paper), until the configured
 * amount of true-cell memory is gathered.  The lowest collected
 * address is the low water mark; skipped anti-cell bytes are the
 * §6.2 capacity loss.
 *
 * With multi-level zoning (Section 7) the collected frames are
 * partitioned per paging level, higher levels at higher physical
 * addresses, and — optionally — candidate frames whose PS-bit cells
 * can flip '1'->'0' are screened out of the level>=2 partitions.
 */

#ifndef CTAMEM_CTA_PTP_ZONE_HH
#define CTAMEM_CTA_PTP_ZONE_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "cta/config.hh"
#include "cta/indicator.hh"
#include "dram/module.hh"
#include "mm/buddy.hh"
#include "mm/zone.hh"

namespace ctamem::cta {

/**
 * Materialized result of the ZONE_PTP layout scan: everything the
 * builder derives from the module's cell map, in plain data form.
 * Snapshots carry one of these so a restored machine can rebuild the
 * zone without re-walking rows or re-screening PS-bit cells — the
 * expensive part of a CTA boot.
 */
struct PtpLayout
{
    Addr lowWaterMark = 0;
    std::uint64_t trueBytes = 0;
    std::uint64_t skippedAntiBytes = 0;
    std::uint64_t screenedFrames = 0;
    bool multiLevel = false;
    std::vector<mm::FrameSpan> spans;
    std::array<std::vector<mm::FrameSpan>, 5> levelSpans;

    bool operator==(const PtpLayout &) const = default;
};

/**
 * The top-down true-cell scan behind ZONE_PTP and ZONE_HYPERVISOR:
 * walk @p module's rows down from the top of memory, merging
 * true-cell rows into spans (top of memory first) and skipping
 * anti-cell rows, until @p bytes are collected.  Fills the layout's
 * lowWaterMark (the lowest row collected), trueBytes,
 * skippedAntiBytes and spans.
 * @throws FatalError when @p bytes is not row-aligned or the upper
 *         half of the module cannot supply it (@p zone names the
 *         zone in the message).
 */
PtpLayout collectTrueCellSpans(const dram::DramModule &module,
                               std::uint64_t bytes, const char *zone);

/** The page-table zone and its allocator. */
class PtpZone
{
  public:
    /**
     * Build the zone from @p module's cell layout.
     * @throws FatalError when the module cannot supply the requested
     *         true-cell bytes above the 4 GiB line.
     */
    PtpZone(dram::DramModule &module, const CtaConfig &config);

    /**
     * Rebuild the zone from a previously captured layout(), skipping
     * the row walk and PS-bit screening scan.  The layout must have
     * been produced by a module with the same geometry, cell map and
     * seed — snapshot restore guarantees this by keying blobs on the
     * full machine config.
     */
    PtpZone(dram::DramModule &module, const CtaConfig &config,
            const PtpLayout &layout);

    /** @name Layout results */
    /** @{ */
    /** Lowest physical address belonging to ZONE_PTP. */
    Addr lowWaterMark() const { return lowWaterMark_; }

    /** True-cell bytes collected (== config.ptpBytes). */
    std::uint64_t trueBytes() const { return trueBytes_; }

    /** Anti-cell bytes skipped while collecting (capacity loss). */
    std::uint64_t skippedAntiBytes() const { return skippedAntiBytes_; }

    /** Frames dropped by PS-bit screening. */
    std::uint64_t screenedFrames() const { return screenedFrames_; }

    /** True-cell sub-zones, ordered top of memory first. */
    const std::vector<mm::FrameSpan> &subZones() const
    {
        return spans_;
    }

    /** The machine's PTP indicator. */
    const PtpIndicator &indicator() const { return indicator_; }

    /** Scan results in plain data form, for snapshots. */
    PtpLayout layout() const;
    /** @} */

    /** @name Allocation */
    /** @{ */
    /**
     * Allocate one zeroed table granule for a level-@p level table
     * (1 = leaf table .. root level).  Returns the base PFN of a
     * naturally aligned run of granuleFrames() 4 KiB frames (one
     * frame on x86-64).  Without multi-level zoning all levels share
     * one partition.
     */
    std::optional<Pfn> allocate(unsigned level);

    /** Return a frame obtained from allocate(). */
    void free(Pfn pfn);

    /** True iff @p pfn lies in a ZONE_PTP sub-zone. */
    bool contains(Pfn pfn) const;

    std::uint64_t freeFrames() const;
    std::uint64_t totalFrames() const;
    /** @} */

    /** Counters: allocs, frees, failures per level. */
    StatGroup &stats() { return stats_; }

  private:
    dram::DramModule &module_;
    const paging::Arch *arch_;
    PtpIndicator indicator_;
    Addr lowWaterMark_ = 0;
    std::uint64_t trueBytes_ = 0;
    std::uint64_t skippedAntiBytes_ = 0;
    std::uint64_t screenedFrames_ = 0;
    bool multiLevel_ = false;

    std::vector<mm::FrameSpan> spans_;

    /** Buddy allocators per level partition (index 0 unused). */
    std::array<std::vector<mm::BuddyAllocator>, 5> levelBuddies_;
    /** Which level a frame was allocated from, for free(). */
    std::array<std::vector<mm::FrameSpan>, 5> levelSpans_;

    StatGroup stats_;
    /** Per-partition alloc/failure handles (index 0 unused). */
    std::array<StatId, 5> allocsLIds_;
    std::array<StatId, 5> failuresLIds_;
    StatId freesId_;
};

} // namespace ctamem::cta

#endif // CTAMEM_CTA_PTP_ZONE_HH
