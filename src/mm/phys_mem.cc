#include "mm/phys_mem.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <span>

#include "common/log.hh"

namespace ctamem::mm {

std::vector<ZoneSpec>
standardZoneSpecs(std::uint64_t capacity, std::uint64_t top_limit)
{
    if (top_limit > capacity)
        fatal("zone top limit ", top_limit, " exceeds capacity ",
              capacity);
    if (top_limit < 16 * MiB)
        fatal("machine too small: need at least 16 MiB below the "
              "low water mark");

    std::vector<ZoneSpec> specs;
    const std::uint64_t dma_end = 16 * MiB;
    const std::uint64_t dma32_end = std::min<std::uint64_t>(
        4 * GiB, top_limit);

    specs.push_back(ZoneSpec{
        ZoneId::Dma,
        {FrameSpan{0, dma_end / pageSize}}});
    if (dma32_end > dma_end) {
        specs.push_back(ZoneSpec{
            ZoneId::Dma32,
            {FrameSpan{dma_end / pageSize,
                       (dma32_end - dma_end) / pageSize}}});
    }
    if (top_limit > dma32_end) {
        specs.push_back(ZoneSpec{
            ZoneId::Normal,
            {FrameSpan{dma32_end / pageSize,
                       (top_limit - dma32_end) / pageSize}}});
    }
    return specs;
}

namespace {

/**
 * Zonelist fallback order per preferred zone (Section 6.1: the x86-64
 * zonelist is NORMAL, DMA32, DMA, with ZONE_KERNEL_RSV above NORMAL;
 * each ZONE_PTP partition is a list of one — it never serves or
 * borrows from other zones).
 */
std::span<const ZoneId>
zonelist(ZoneId preferred)
{
    static constexpr std::array<ZoneId, 8> order{
        ZoneId::KernelRsv, ZoneId::Normal, ZoneId::Dma32, ZoneId::Dma,
        ZoneId::Ptp, ZoneId::PtpL2, ZoneId::PtpL3, ZoneId::PtpL4};
    const auto downward_end = order.begin() + 4;
    const auto it = std::find(order.begin(), order.end(), preferred);
    if (it == order.end())
        ctamem_panic("bad preferred zone");
    return {it, it < downward_end ? downward_end : it + 1};
}

} // namespace

PhysicalMemory::PhysicalMemory(dram::DramModule &module,
                               std::vector<ZoneSpec> specs)
    : module_(module),
      headOrders_(module.geometry().capacity() / pageSize, 0)
{
    allocsId_ = stats_.registerCounter("allocs");
    fallbacksId_ = stats_.registerCounter("fallbacks");
    failuresId_ = stats_.registerCounter("failures");
    freesId_ = stats_.registerCounter("frees");
    const std::uint64_t total_frames = headOrders_.size();
    for (const ZoneSpec &spec : specs) {
        for (const FrameSpan &span : spec.spans) {
            if (span.endPfn() > total_frames) {
                fatal("zone ", zoneName(spec.id),
                      " extends past physical memory");
            }
        }
        zones_.emplace_back(spec);
    }
    // Reject overlapping zones: every frame has at most one owner.
    for (std::size_t i = 0; i < zones_.size(); ++i) {
        for (std::size_t j = i + 1; j < zones_.size(); ++j) {
            for (const FrameSpan &a : zones_[i].spans()) {
                for (const FrameSpan &b : zones_[j].spans()) {
                    if (a.basePfn < b.endPfn() &&
                        b.basePfn < a.endPfn()) {
                        fatal("zones ", zones_[i].name(), " and ",
                              zones_[j].name(), " overlap");
                    }
                }
            }
        }
    }
}

std::optional<Pfn>
PhysicalMemory::allocate(const GfpFlags &flags, unsigned order)
{
    stats_.at(allocsId_).increment();
    bool first = true;
    for (ZoneId id : zonelist(flags.zone)) {
        Zone *candidate = zone(id);
        if (candidate) {
            if (auto pfn = candidate->allocate(order)) {
                if (!first)
                    stats_.at(fallbacksId_).increment();
                headOrders_[*pfn] = static_cast<std::uint8_t>(order + 1);
                // Fresh pages are handed out zeroed.
                static const std::array<std::uint8_t, pageSize> zeros{};
                for (std::uint64_t i = 0; i < (1ULL << order); ++i) {
                    module_.write(pfnToAddr(*pfn + i), zeros.data(),
                                  pageSize);
                }
                return pfn;
            }
        }
        if (flags.noFallback)
            break;
        first = false;
    }
    stats_.at(failuresId_).increment();
    return std::nullopt;
}

void
PhysicalMemory::free(Pfn pfn)
{
    const std::optional<unsigned> order = blockOrder(pfn);
    if (!order)
        ctamem_panic("free of pfn ", pfn, ", which heads no live block");
    zoneOf(pfn)->free(pfn, *order);
    headOrders_[pfn] = 0;
    stats_.at(freesId_).increment();
}

Zone *
PhysicalMemory::zoneOf(Pfn pfn)
{
    for (Zone &candidate : zones_)
        if (candidate.contains(pfn))
            return &candidate;
    return nullptr;
}

const Zone *
PhysicalMemory::zoneOf(Pfn pfn) const
{
    return const_cast<PhysicalMemory *>(this)->zoneOf(pfn);
}

Zone *
PhysicalMemory::zone(ZoneId id)
{
    for (Zone &candidate : zones_)
        if (candidate.id() == id)
            return &candidate;
    return nullptr;
}

const Zone *
PhysicalMemory::zone(ZoneId id) const
{
    return const_cast<PhysicalMemory *>(this)->zone(id);
}

std::optional<unsigned>
PhysicalMemory::blockOrder(Pfn pfn) const
{
    if (pfn >= headOrders_.size() || headOrders_[pfn] == 0)
        return std::nullopt;
    return headOrders_[pfn] - 1u;
}

std::uint64_t
PhysicalMemory::totalFrames() const
{
    std::uint64_t total = 0;
    for (const Zone &candidate : zones_)
        total += candidate.totalFrames();
    return total;
}

std::uint64_t
PhysicalMemory::freeFrames() const
{
    std::uint64_t total = 0;
    for (const Zone &candidate : zones_)
        total += candidate.freeFrames();
    return total;
}

} // namespace ctamem::mm
