#include "cta/plan.hh"

#include <algorithm>
#include <array>

#include "common/bitops.hh"
#include "common/log.hh"
#include "cta/indicator.hh"
#include "mm/phys_mem.hh"

namespace ctamem::cta {

using mm::FrameSpan;
using mm::ZoneId;
using mm::ZoneSpec;

std::vector<FrameSpan>
subtractSpans(const std::vector<FrameSpan> &from,
              const std::vector<FrameSpan> &holes)
{
    std::vector<FrameSpan> result = from;
    for (const FrameSpan &hole : holes) {
        std::vector<FrameSpan> next;
        for (const FrameSpan &span : result) {
            const Pfn lo = std::max(span.basePfn, hole.basePfn);
            const Pfn hi = std::min(span.endPfn(), hole.endPfn());
            if (lo >= hi) {
                next.push_back(span); // no overlap
                continue;
            }
            if (span.basePfn < lo)
                next.push_back(FrameSpan{span.basePfn,
                                         lo - span.basePfn});
            if (hi < span.endPfn())
                next.push_back(FrameSpan{hi, span.endPfn() - hi});
        }
        result = std::move(next);
    }
    std::erase_if(result,
                  [](const FrameSpan &span) { return span.frames == 0; });
    return result;
}

namespace {

/** Partition the collected spans across paging levels. */
void
partitionLevels(PtpLayout &layout, const paging::Arch &arch)
{
    if (!layout.multiLevel) {
        layout.levelSpans[1] = layout.spans;
        return;
    }

    const std::uint64_t total = layout.trueBytes / pageSize;
    const unsigned top = arch.levels;
    const std::uint64_t granule_frames = arch.granuleFrames();
    // Heuristic reservations: leaf tables dominate (each level-k
    // table serves entriesPerTable level-(k-1) tables), so the upper
    // levels get small slices; higher levels sit at higher physical
    // addresses.  Slices are rounded down to whole table granules so
    // every partition can hand out naturally aligned granule runs.
    std::array<std::uint64_t, 5> want{};
    std::uint64_t upper = 0;
    for (unsigned level = top; level >= 2; --level) {
        want[level] = level == 2
                          ? std::min<std::uint64_t>(512, total / 8)
                          : std::min<std::uint64_t>(256, total / 16);
        want[level] &= ~(granule_frames - 1);
        upper += want[level];
    }
    want[1] = total - upper;

    // The spans are ordered top-of-memory first; carve in root-first
    // level order so higher levels land higher.
    const std::vector<FrameSpan> &spans = layout.spans;
    std::size_t span_idx = 0;
    std::uint64_t offset = 0; // frames consumed from spans[span_idx]
    for (unsigned level = top; level >= 1; --level) {
        std::uint64_t need = want[level];
        while (need > 0) {
            if (span_idx >= spans.size())
                ctamem_panic("level partition overran ZONE_PTP");
            const FrameSpan &span = spans[span_idx];
            const std::uint64_t available = span.frames - offset;
            const std::uint64_t take =
                std::min<std::uint64_t>(need, available);
            // Spans are stored top-first; frames are carved from the
            // top of each span downward.
            const Pfn base = span.basePfn + available - take;
            layout.levelSpans[level].push_back(FrameSpan{base, take});
            need -= take;
            offset += take;
            if (offset == span.frames) {
                ++span_idx;
                offset = 0;
            }
        }
        if (level == 1)
            break;
    }
}

/**
 * Drop level>=2 frames with block-bit cells that can flip the entry
 * into a block leaf (PS 1->0 on x86; the screen direction is the
 * same on ARM, whose type bit is block-when-clear).
 */
void
screenPageSizeBits(PtpLayout &layout, const paging::Arch &arch,
                   const dram::FaultModel &faults)
{
    // Only levels whose entries can carry the block marker need
    // screening: on x86 a PD/PDPT entry whose PS bit flips '1'->'0'
    // stops being a 2 MiB / 1 GiB leaf, on ARM a table descriptor
    // whose type bit flips '1'->'0' *becomes* a block leaf — either
    // way the dangerous direction in true-cells is '1'->'0' on the
    // descriptor's block bit.  Level>=2 candidate granules with a
    // vulnerable block-bit cell in any slot are dropped whole.  A
    // slot is 64 cells, so its block bit is the cell whose in-frame
    // offset is blockBit modulo 64.
    const std::uint64_t granule_frames = arch.granuleFrames();
    std::vector<std::uint32_t> cells;
    const auto exploitable_frame = [&](Addr frame_base) {
        cells.clear();
        faults.frameCells(frame_base, cells);
        for (const std::uint32_t cell : cells) {
            if (cell % 64 == arch.blockBit &&
                faults.flipDirection(frame_base + cell / 8, cell % 8,
                                     dram::CellType::True) ==
                    dram::FlipDirection::OneToZero) {
                return true;
            }
        }
        return false;
    };
    for (unsigned level = 2; level <= arch.levels; ++level) {
        std::vector<FrameSpan> clean;
        for (const FrameSpan &span : layout.levelSpans[level]) {
            for (Pfn pfn = span.basePfn; pfn < span.endPfn();
                 pfn += granule_frames) {
                bool exploitable = false;
                for (Pfn frame = pfn;
                     frame < pfn + granule_frames && !exploitable;
                     ++frame) {
                    exploitable = exploitable_frame(pfnToAddr(frame));
                }
                if (exploitable) {
                    layout.screenedFrames += granule_frames;
                } else if (!clean.empty() &&
                           clean.back().endPfn() == pfn) {
                    clean.back().frames += granule_frames;
                } else {
                    clean.push_back(FrameSpan{pfn, granule_frames});
                }
            }
        }
        layout.levelSpans[level] = std::move(clean);
    }
}

} // namespace

PtpLayout
collectTrueCellSpans(const dram::DramModule &module,
                     std::uint64_t bytes, const char *zone)
{
    const std::uint64_t row_bytes = module.geometry().rowBytes();
    const Addr capacity = module.geometry().capacity();
    if (bytes % row_bytes != 0) {
        fatal(zone, " size ", bytes,
              " must be a multiple of the DRAM row size ", row_bytes);
    }
    // Never let a zone eat more than half the machine; a layout that
    // anti-cell-starved that badly is a configuration error.
    const Addr floor = capacity / 2;

    PtpLayout layout;
    std::vector<FrameSpan> &spans = layout.spans;
    Addr row = capacity;
    while (layout.trueBytes < bytes) {
        if (row < floor + row_bytes) {
            fatal("cannot collect ", bytes, " true-cell bytes for ",
                  zone, " above half the module; collected ",
                  layout.trueBytes, " with ", layout.skippedAntiBytes,
                  " anti-cell bytes skipped");
        }
        row -= row_bytes;
        if (module.cellTypeAt(row) != dram::CellType::True) {
            layout.skippedAntiBytes += row_bytes;
            continue;
        }
        const Pfn base = addrToPfn(row);
        const std::uint64_t frames = row_bytes / pageSize;
        if (!spans.empty() && spans.back().basePfn == base + frames) {
            // Extend the previous (higher) span downward.
            spans.back().basePfn = base;
            spans.back().frames += frames;
        } else {
            spans.push_back(FrameSpan{base, frames});
        }
        layout.trueBytes += row_bytes;
    }
    layout.lowWaterMark = row;
    return layout;
}

PtpLayout
planLayout(const dram::DramModule &module, const CtaConfig &config)
{
    PtpLayout layout =
        collectTrueCellSpans(module, config.ptpBytes, "ZONE_PTP");
    layout.multiLevel = config.multiLevelZones;
    partitionLevels(layout, *config.arch);
    if (config.screenPageSizeBit && layout.multiLevel)
        screenPageSizeBits(layout, *config.arch, module.faults());
    return layout;
}

CtaPlan
buildCtaPlan(const dram::DramModule &module, const CtaConfig &config)
{
    CtaPlan plan;
    plan.layout = planLayout(module, config);
    const Addr lwm = plan.layout.lowWaterMark;
    const PtpIndicator ind(module.geometry().capacity(),
                           config.ptpBytes);

    // Standard zones stop at the low water mark (Rule 2: nothing but
    // page tables above it — the region above simply is not handed to
    // the general allocator).
    plan.physSpecs = mm::standardZoneSpecs(
        module.geometry().capacity(), lwm);

    if (config.minIndicatorZeros == 0)
        return plan;

    // Reserve every below-LWM region whose indicator has fewer than
    // minIndicatorZeros zeros for the kernel / trusted processes.
    std::vector<FrameSpan> rsv;
    const std::uint64_t regions = 1ULL << ind.bits();
    const std::uint64_t region_frames = ind.regionBytes() / pageSize;
    const Pfn lwm_pfn = addrToPfn(lwm);
    for (std::uint64_t value = 0; value < regions; ++value) {
        const unsigned zero_bits =
            ind.bits() - popcount(value);
        if (zero_bits >= config.minIndicatorZeros)
            continue;
        FrameSpan span{value * region_frames, region_frames};
        // Clip to below the low water mark (the all-ones region and
        // any region tail above LWM belong to ZONE_PTP or is waste).
        if (span.basePfn >= lwm_pfn)
            continue;
        span.frames = std::min(span.frames, lwm_pfn - span.basePfn);
        rsv.push_back(span);
    }

    if (!rsv.empty()) {
        for (ZoneSpec &spec : plan.physSpecs)
            spec.spans = subtractSpans(spec.spans, rsv);
        std::erase_if(plan.physSpecs, [](const ZoneSpec &spec) {
            return spec.spans.empty();
        });
        plan.physSpecs.push_back(ZoneSpec{ZoneId::KernelRsv, rsv});
    }
    return plan;
}

} // namespace ctamem::cta
