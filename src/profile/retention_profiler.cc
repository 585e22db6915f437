#include "profile/retention_profiler.hh"

#include <algorithm>

#include "common/log.hh"

namespace ctamem::profile {

using dram::CellType;

bool
RetentionProfiler::decaysWithin(Addr addr, unsigned bit, SimTime wait)
{
    const CellType type = module_.cellTypeAt(addr);
    module_.store().writeBit(addr, bit, dram::chargedBit(type));
    module_.powerOff(wait, kCelsius);
    return module_.store().readBit(addr, bit) ==
           dram::dischargedBit(type);
}

CellRetention
RetentionProfiler::measure(Addr addr, unsigned bit)
{
    const CellType type = module_.cellTypeAt(addr);
    if (!decaysWithin(addr, bit, kCap))
        return CellRetention{addr, bit, type, kCap, true};

    SimTime lo = 0;    // holds at lo
    SimTime hi = kCap; // decays by hi
    while (hi - lo > kTolerance) {
        const SimTime mid = lo + (hi - lo) / 2;
        if (decaysWithin(addr, bit, mid))
            hi = mid;
        else
            lo = mid;
    }
    return CellRetention{addr, bit, type, hi, false};
}

std::vector<CellRetention>
RetentionProfiler::profileRegion(Addr base, std::uint64_t length,
                                 std::uint64_t samples)
{
    if (samples == 0 || length == 0)
        fatal("profileRegion: empty region or zero samples");
    const std::uint64_t cells = length * 8;
    const std::uint64_t count = std::min(samples, cells);
    const std::uint64_t stride = cells / count;

    std::vector<CellRetention> results;
    results.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t cell = i * stride;
        results.push_back(measure(base + cell / 8,
                                  static_cast<unsigned>(cell % 8)));
    }
    std::sort(results.begin(), results.end(),
              [](const CellRetention &a, const CellRetention &b) {
                  return a.retention > b.retention;
              });
    return results;
}

std::vector<CellRetention>
RetentionProfiler::findCanaries(Addr base, std::uint64_t length,
                                std::uint64_t count,
                                std::uint64_t samples)
{
    std::vector<CellRetention> sorted =
        profileRegion(base, length, samples);
    if (sorted.size() > count)
        sorted.resize(count);
    return sorted;
}

} // namespace ctamem::profile
