#include "mm/zone.hh"

#include "common/log.hh"

namespace ctamem::mm {

const char *
zoneName(ZoneId id)
{
    switch (id) {
      case ZoneId::Dma: return "ZONE_DMA";
      case ZoneId::Dma32: return "ZONE_DMA32";
      case ZoneId::Normal: return "ZONE_NORMAL";
      case ZoneId::KernelRsv: return "ZONE_KERNEL_RSV";
      case ZoneId::Ptp: return "ZONE_PTP";
      case ZoneId::PtpL2: return "ZONE_PTP_L2";
      case ZoneId::PtpL3: return "ZONE_PTP_L3";
      case ZoneId::PtpL4: return "ZONE_PTP_L4";
      case ZoneId::NumZones: break;
    }
    return "ZONE_INVALID";
}

Zone::Zone(const ZoneSpec &spec) : id_(spec.id), spans_(spec.spans)
{
    allocsId_ = stats_.registerCounter("allocs");
    freesId_ = stats_.registerCounter("frees");
    failuresId_ = stats_.registerCounter("failures");
    for (const FrameSpan &span : spans_) {
        if (span.frames == 0)
            fatal("zone ", name(), " has an empty span");
        buddies_.emplace_back(span.basePfn, span.frames);
    }
}

std::optional<Pfn>
Zone::allocate(unsigned order)
{
    stats_.at(allocsId_).increment();
    for (BuddyAllocator &buddy : buddies_) {
        if (auto pfn = buddy.allocate(order))
            return pfn;
    }
    stats_.at(failuresId_).increment();
    return std::nullopt;
}

void
Zone::free(Pfn pfn, unsigned order)
{
    stats_.at(freesId_).increment();
    for (BuddyAllocator &buddy : buddies_) {
        if (buddy.contains(pfn)) {
            buddy.free(pfn, order);
            return;
        }
    }
    ctamem_panic("free of pfn ", pfn, " not owned by zone ", name());
}

bool
Zone::contains(Pfn pfn) const
{
    for (const FrameSpan &span : spans_)
        if (span.contains(pfn))
            return true;
    return false;
}

std::uint64_t
Zone::freeFrames() const
{
    std::uint64_t total = 0;
    for (const BuddyAllocator &buddy : buddies_)
        total += buddy.freeFrames();
    return total;
}

std::uint64_t
Zone::totalFrames() const
{
    std::uint64_t total = 0;
    for (const BuddyAllocator &buddy : buddies_)
        total += buddy.totalFrames();
    return total;
}

} // namespace ctamem::mm
