/**
 * @file
 * The CTA zone plan — what `cta/` contributes to a CTA boot:
 *
 *  - the ZONE_PTP layout above the low water mark: the scan walks
 *    DRAM rows downward from the top of physical memory, collecting
 *    true-cell rows into sub-zones and skipping anti-cell stripes
 *    (Figure 8 of the paper), until the configured amount of
 *    true-cell memory is gathered.  The lowest collected address is
 *    the low water mark; skipped anti-cell bytes are the §6.2
 *    capacity loss.  With multi-level zoning (Section 7) the
 *    collected frames are partitioned per paging level, higher
 *    levels at higher physical addresses, and — optionally —
 *    candidate frames whose PS-bit cells can flip '1'->'0' are
 *    screened out of the level>=2 partitions;
 *  - optionally ZONE_KERNEL_RSV — the regions below the low water
 *    mark whose PTP indicator has fewer than `minIndicatorZeros`
 *    zeros, reserved for the kernel and trusted processes (the
 *    Section 5 restriction that drives the expected number of
 *    exploitable PTEs to ~1e-5);
 *  - the standard zones over what remains.
 *
 * The kernel turns the layout's partitions into ZONE_PTP zones of
 * its mm::PhysicalMemory and asks them for page tables with GFP_PTP.
 */

#ifndef CTAMEM_CTA_PLAN_HH
#define CTAMEM_CTA_PLAN_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "cta/config.hh"
#include "dram/module.hh"
#include "mm/zone.hh"

namespace ctamem::cta {

/**
 * Materialized result of the ZONE_PTP layout scan: everything the
 * scan derives from the module's cell map, in plain data form.
 */
struct PtpLayout
{
    /** Lowest physical address belonging to ZONE_PTP. */
    Addr lowWaterMark = 0;
    /** True-cell bytes collected (== config.ptpBytes). */
    std::uint64_t trueBytes = 0;
    /** Anti-cell bytes skipped while collecting (capacity loss). */
    std::uint64_t skippedAntiBytes = 0;
    /** Frames dropped by PS-bit screening. */
    std::uint64_t screenedFrames = 0;
    bool multiLevel = false;
    /** True-cell sub-zones, ordered top of memory first. */
    std::vector<mm::FrameSpan> spans;
    /** Frames per partition: [1] is the shared zone (or the level-1
     *  partition), [2..4] the upper levels' under multi-level zoning. */
    std::array<std::vector<mm::FrameSpan>, 5> levelSpans;
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

/**
 * The full ZONE_PTP scan: true-cell rows, per-level partitions and
 * PS-bit screening.
 * @throws FatalError when the module cannot supply the requested
 *         true-cell bytes above half of memory.
 */
PtpLayout planLayout(const dram::DramModule &module,
                     const CtaConfig &config);

/** Everything the kernel needs to boot with CTA enabled. */
struct CtaPlan
{
    /** The ZONE_PTP layout. */
    PtpLayout layout;

    /** Zone specs below the low water mark (excludes ZONE_PTP). */
    std::vector<mm::ZoneSpec> physSpecs;
};

/**
 * Subtract span list @p holes from span list @p from (page granular).
 */
std::vector<mm::FrameSpan>
subtractSpans(const std::vector<mm::FrameSpan> &from,
              const std::vector<mm::FrameSpan> &holes);

/**
 * Build the CTA zone plan for @p module.
 * @throws FatalError when planLayout() does, or when the memory and
 *         ZONE_PTP sizes admit no PTP indicator.
 */
CtaPlan buildCtaPlan(const dram::DramModule &module,
                     const CtaConfig &config);

} // namespace ctamem::cta

#endif // CTAMEM_CTA_PLAN_HH
