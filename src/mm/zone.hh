/**
 * @file
 * A physical memory zone: a named set of page-frame spans, each
 * managed by its own buddy allocator.
 *
 * Most zones are a single contiguous span.  ZONE_PTP is the
 * exception: the CTA layout decomposes it into multiple sub-zones,
 * one per contiguous *true-cell* region, skipping anti-cell stripes
 * (Figure 8 of the paper), and under multi-level zoning into one
 * zone per paging level.  Allocation searches sub-zones
 * sequentially.
 */

#ifndef CTAMEM_MM_ZONE_HH
#define CTAMEM_MM_ZONE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mm/buddy.hh"
#include "mm/gfp.hh"

namespace ctamem::mm {

/** A contiguous run of page frames. */
struct FrameSpan
{
    Pfn basePfn;
    std::uint64_t frames;

    Pfn endPfn() const { return basePfn + frames; }
    std::uint64_t bytes() const { return frames * pageSize; }

    bool
    contains(Pfn pfn) const
    {
        return pfn >= basePfn && pfn < endPfn();
    }

    bool operator==(const FrameSpan &other) const = default;
};

/** Static description of a zone, produced by a zone builder. */
struct ZoneSpec
{
    ZoneId id;
    std::vector<FrameSpan> spans;
};

/** A runtime zone: spec + buddy allocators + accounting. */
class Zone
{
  public:
    explicit Zone(const ZoneSpec &spec);

    ZoneId id() const { return id_; }
    const char *name() const { return zoneName(id_); }

    /** Allocate 2^order frames from the first sub-zone that can. */
    std::optional<Pfn> allocate(unsigned order);

    /** Free a block previously allocated from this zone. */
    void free(Pfn pfn, unsigned order);

    /** True iff @p pfn belongs to this zone. */
    bool contains(Pfn pfn) const;

    std::uint64_t freeFrames() const;
    std::uint64_t totalFrames() const;

    const std::vector<FrameSpan> &spans() const { return spans_; }

    /** Counters: allocs, frees, failures. */
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

  private:
    ZoneId id_;
    std::vector<FrameSpan> spans_;
    std::vector<BuddyAllocator> buddies_;
    StatGroup stats_;
    StatId allocsId_;
    StatId freesId_;
    StatId failuresId_;
};

} // namespace ctamem::mm

#endif // CTAMEM_MM_ZONE_HH
