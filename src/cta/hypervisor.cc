#include "cta/hypervisor.hh"

#include <algorithm>

#include "common/log.hh"
#include "cta/plan.hh"

namespace ctamem::cta {

using mm::FrameSpan;

Addr
GuestZone::lowestAddr() const
{
    Addr lowest = ~0ULL;
    for (const FrameSpan &span : spans)
        lowest = std::min(lowest, pfnToAddr(span.basePfn));
    return lowest;
}

Hypervisor::Hypervisor(dram::DramModule &module,
                       std::uint64_t zone_bytes)
    : module_(module)
{
    PtpLayout scan =
        collectTrueCellSpans(module, zone_bytes, "ZONE_HYPERVISOR");
    zoneBase_ = scan.lowWaterMark;
    skippedAnti_ = scan.skippedAntiBytes;
    remaining_ = scan.trueBytes;
    freeSpans_ = std::move(scan.spans);
}

GuestZone
Hypervisor::assignGuestZone(std::uint64_t bytes)
{
    if (bytes == 0 || bytes % pageSize != 0)
        fatal("guest zone size must be a nonzero page multiple");
    if (bytes > remaining_)
        fatal("ZONE_HYPERVISOR exhausted: ", remaining_,
              " bytes left, ", bytes, " requested");

    GuestZone guest{nextGuestId_++, {}, bytes};
    std::uint64_t need = bytes / pageSize;
    while (need > 0) {
        FrameSpan &span = freeSpans_.front();
        const std::uint64_t take =
            std::min<std::uint64_t>(need, span.frames);
        // Carve from the top of the span so earlier guests sit at
        // higher physical addresses.
        guest.spans.push_back(
            FrameSpan{span.basePfn + span.frames - take, take});
        span.frames -= take;
        need -= take;
        if (span.frames == 0)
            freeSpans_.erase(freeSpans_.begin());
    }
    remaining_ -= bytes;
    guests_.push_back(guest);
    return guest;
}

bool
Hypervisor::auditIsolation() const
{
    for (std::size_t i = 0; i < guests_.size(); ++i) {
        for (const FrameSpan &span : guests_[i].spans) {
            if (pfnToAddr(span.basePfn) < zoneBase_)
                return false;
            if (module_.cellTypeAt(pfnToAddr(span.basePfn)) !=
                dram::CellType::True) {
                return false;
            }
            for (std::size_t j = i + 1; j < guests_.size(); ++j) {
                for (const FrameSpan &other : guests_[j].spans) {
                    if (span.basePfn < other.endPfn() &&
                        other.basePfn < span.endPfn()) {
                        return false;
                    }
                }
            }
        }
    }
    return true;
}

} // namespace ctamem::cta
